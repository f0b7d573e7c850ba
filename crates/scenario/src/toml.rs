//! A dependency-free TOML-subset loader and canonical emitter for
//! [`ScenarioSpec`].
//!
//! The container builds fully offline, so rather than pulling a TOML
//! crate this module hand-rolls exactly the subset the schema needs:
//! `key = value` pairs (unsigned integers and `"strings"`), full-line
//! `#` comments, and `[[tier]]` array-of-tables sections. The emitter
//! is *canonical* — fixed key order, shape-relevant keys only — so
//! `emit(parse(s))` is a fixed point: parsing the emitted text and
//! emitting again reproduces it byte-for-byte (checked in CI).
//!
//! The full schema is documented in `docs/workloads.md`.

use crate::spec::{ScenarioSpec, TierSpec};
use crate::streams::ArrivalShape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The most bytes of a raw key or value an error message quotes.
const QUOTE_MAX: usize = 64;

/// `raw` as an error message quotes it: whole when short, else its first
/// [`QUOTE_MAX`] bytes (cut at a character boundary) and an ellipsis, so
/// a huge value cannot make a huge message.
fn quote(raw: &str) -> String {
    if raw.len() <= QUOTE_MAX {
        return raw.to_string();
    }
    let end = (0..=QUOTE_MAX)
        .rev()
        .find(|&i| raw.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}…", &raw[..end])
}

/// One parsed `key = value` payload.
enum Value {
    Int(u64),
    Str(String),
}

impl Value {
    fn int(&self, key: &str, line: usize) -> Result<u64, String> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Str(_) => Err(format!("line {line}: `{key}` must be an integer")),
        }
    }

    fn str(&self, key: &str, line: usize) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            Value::Int(_) => Err(format!("line {line}: `{key}` must be a quoted string")),
        }
    }
}

fn parse_value(key: &str, raw: &str, line: usize) -> Result<Value, String> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(end) = rest.find('"') else {
            return Err(format!("line {line}: unterminated string"));
        };
        let trailing = rest[end + 1..].trim();
        if !trailing.is_empty() && !trailing.starts_with('#') {
            return Err(format!("line {line}: trailing text after string"));
        }
        return Ok(Value::Str(rest[..end].to_string()));
    }
    let digits = raw.split('#').next().unwrap_or("").trim();
    digits.parse::<u64>().map(Value::Int).map_err(|_| {
        format!(
            "line {line}: `{}`: expected an unsigned integer, got `{}`",
            quote(key),
            quote(raw)
        )
    })
}

/// One section's key/value pairs with source-line numbers.
type Section = BTreeMap<String, (Value, usize)>;

/// The largest value of a key measured in cycles (`horizon`,
/// `mean_inter_arrival`, `period`, `size_base`, `drain_every`,
/// `refill_interval`, `breaker_cooldown`): 2^40, about nine minutes at
/// 2 GHz. Clocks, gaps and tick sums built from these stay far below
/// `u64::MAX`.
const MAX_CYCLES: u64 = 1 << 40;

/// The largest expected arrival count of a spec: Σ over tiers of
/// `sources × ⌈burst_div × horizon / mean_inter_arrival⌉`, where
/// `burst_div` counts only for bursty tiers. Each source counts at least
/// once, for its stream. A run near the cap takes about a second and
/// 180 MB.
const MAX_ARRIVALS: u128 = 1 << 20;

/// The largest drain-round count of a spec: Σ over tiers of
/// `⌈horizon / drain_every⌉`. Each round is one scheduled event.
const MAX_DRAIN_ROUNDS: u128 = 1 << 20;

fn take_int(section: &mut Section, key: &str, default: u64) -> Result<u64, String> {
    match section.remove(key) {
        Some((v, line)) => v.int(key, line),
        None => Ok(default),
    }
}

/// [`take_int`] for a key in cycles: a value above [`MAX_CYCLES`] is a
/// line-numbered error.
fn take_cycles(section: &mut Section, key: &str, default: u64) -> Result<u64, String> {
    match section.remove(key) {
        Some((v, line)) => {
            let v = v.int(key, line)?;
            if v > MAX_CYCLES {
                return Err(format!(
                    "line {line}: `{key}` = {v} is above the cap of {MAX_CYCLES} cycles"
                ));
            }
            Ok(v)
        }
        None => Ok(default),
    }
}

/// [`take_int`] for a field narrower than `u64`: a value the field's type
/// cannot hold is a line-numbered error, never a silent wrap.
fn take_narrow<T: TryFrom<u64>>(section: &mut Section, key: &str, default: T) -> Result<T, String> {
    match section.remove(key) {
        Some((v, line)) => {
            let v = v.int(key, line)?;
            T::try_from(v).map_err(|_| format!("line {line}: `{key}` = {v} is out of range"))
        }
        None => Ok(default),
    }
}

fn build_tier(mut section: Section, index: usize) -> Result<TierSpec, String> {
    let name = match section.remove("name") {
        Some((v, line)) => v.str("name", line)?.to_string(),
        None => return Err(format!("tier {index}: missing `name`")),
    };
    let mut tier = TierSpec::new(&name);
    tier.sources = take_narrow(&mut section, "sources", tier.sources)?.max(1);
    tier.mean_inter_arrival =
        take_cycles(&mut section, "mean_inter_arrival", tier.mean_inter_arrival)?.max(1);
    let shape_name = match section.remove("shape") {
        Some((v, line)) => v.str("shape", line)?.to_string(),
        None => "steady".to_string(),
    };
    tier.shape = match shape_name.as_str() {
        "steady" => ArrivalShape::Steady,
        "diurnal" => ArrivalShape::Diurnal {
            period: take_cycles(&mut section, "period", 50_000)?.max(2),
            swing_pct: take_narrow::<u32>(&mut section, "swing_pct", 50)?.min(99),
        },
        "bursty" => ArrivalShape::Bursty {
            period: take_cycles(&mut section, "period", 50_000)?.max(1),
            on_pct: take_narrow::<u32>(&mut section, "on_pct", 20)?.min(100),
            burst_div: take_narrow::<u32>(&mut section, "burst_div", 8)?.max(1),
        },
        other => {
            return Err(format!(
                "tier `{}`: unknown shape `{}` (steady|diurnal|bursty)",
                quote(&name),
                quote(other)
            ))
        }
    };
    tier.size.base = take_cycles(&mut section, "size_base", tier.size.base)?.max(1);
    tier.size.tail_pct = take_narrow(&mut section, "size_tail_pct", tier.size.tail_pct)?;
    tier.size.tail_cap = take_narrow(&mut section, "size_tail_cap", tier.size.tail_cap)?;
    tier.mix.strict_pct = take_narrow(&mut section, "strict_pct", tier.mix.strict_pct)?.min(100);
    tier.mix.elastic_pct = take_narrow(&mut section, "elastic_pct", tier.mix.elastic_pct)?.min(100);
    tier.mix.elastic_slack_pct = take_narrow(
        &mut section,
        "elastic_slack_pct",
        tier.mix.elastic_slack_pct,
    )?;
    tier.deadline_slack_pct =
        take_narrow(&mut section, "deadline_slack_pct", tier.deadline_slack_pct)?;
    tier.drain_every = take_cycles(&mut section, "drain_every", tier.drain_every)?.max(1);
    tier.queue_capacity = take_narrow(&mut section, "queue_capacity", tier.queue_capacity)?.max(1);
    tier.bucket_capacity = take_int(&mut section, "bucket_capacity", tier.bucket_capacity)?.max(1);
    tier.refill_interval =
        take_cycles(&mut section, "refill_interval", tier.refill_interval)?.max(1);
    tier.breaker_window = take_narrow(&mut section, "breaker_window", tier.breaker_window)?;
    tier.breaker_threshold_pct = take_narrow(
        &mut section,
        "breaker_threshold_pct",
        tier.breaker_threshold_pct,
    )?
    .min(100);
    tier.breaker_cooldown = take_cycles(&mut section, "breaker_cooldown", tier.breaker_cooldown)?;
    if let Some((key, (_, line))) = section.iter().next() {
        return Err(format!("line {line}: unknown tier key `{}`", quote(key)));
    }
    Ok(tier)
}

/// Parses a [`ScenarioSpec`] from the TOML subset.
///
/// # Errors
///
/// Returns a line-numbered message on malformed syntax, unknown keys,
/// missing `name`s, a value past its field's type or cap, a spec whose
/// expected arrivals or drain rounds exceed their caps, or a scenario with
/// no tiers. The caps are documented in `docs/workloads.md`.
pub fn parse_toml(text: &str) -> Result<ScenarioSpec, String> {
    let mut header: Section = BTreeMap::new();
    // Each tier's section and the line of its `[[tier]]` header.
    let mut tiers: Vec<(Section, usize)> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Section headers carry no strings, so a trailing `#` comment is
        // unambiguous here.
        if line.split('#').next().unwrap_or("").trim() == "[[tier]]" {
            tiers.push((BTreeMap::new(), line_no));
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {line_no}: unknown section `{}` (only [[tier]] is supported)",
                quote(line)
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {line_no}: expected `key = value`"));
        };
        let key = key.trim().to_string();
        let value = parse_value(&key, value, line_no)?;
        let section = tiers.last_mut().map_or(&mut header, |(tier, _)| tier);
        if section.insert(key.clone(), (value, line_no)).is_some() {
            return Err(format!("line {line_no}: duplicate key `{}`", quote(&key)));
        }
    }

    let name = match header.remove("name") {
        Some((v, line)) => v.str("name", line)?.to_string(),
        None => return Err("missing top-level `name`".to_string()),
    };
    let seed = take_int(&mut header, "seed", 0)?;
    let mut spec = ScenarioSpec::new(&name, seed);
    let horizon_line = header.get("horizon").map(|&(_, line)| line);
    spec.horizon = take_cycles(&mut header, "horizon", spec.horizon)?.max(1);
    spec.ways_min = take_narrow(&mut header, "ways_min", spec.ways_min)?.max(1);
    spec.ways_max = take_narrow(&mut header, "ways_max", spec.ways_max)?.max(spec.ways_min);
    if let Some((key, (_, line))) = header.iter().next() {
        return Err(format!("line {line}: unknown key `{}`", quote(key)));
    }
    let horizon = u128::from(spec.horizon);
    let mut arrivals = 0u128;
    let mut drain_rounds = 0u128;
    for (index, (section, header_line)) in tiers.into_iter().enumerate() {
        let tier = build_tier(section, index)?;
        let burst_div = match tier.shape {
            ArrivalShape::Bursty { burst_div, .. } => burst_div,
            _ => 1,
        };
        arrivals += u128::from(tier.sources)
            * (u128::from(burst_div) * horizon).div_ceil(tier.mean_inter_arrival.into());
        drain_rounds += horizon.div_ceil(tier.drain_every.into());
        for (count, cap, what) in [
            (
                arrivals,
                MAX_ARRIVALS,
                "expected arrivals (Σ sources × burst_div × horizon / mean_inter_arrival)",
            ),
            (
                drain_rounds,
                MAX_DRAIN_ROUNDS,
                "drain rounds (Σ horizon / drain_every)",
            ),
        ] {
            if count > cap {
                // A defaulted horizon has no line: point at the tier that
                // crossed the cap.
                let line = horizon_line.unwrap_or(header_line);
                return Err(format!(
                    "line {line}: `horizon` = {} gives {count} {what} by tier `{}`, above \
                     the cap of {cap}",
                    spec.horizon,
                    quote(&tier.name)
                ));
            }
        }
        spec.tiers.push(tier);
    }
    if spec.tiers.is_empty() {
        return Err("scenario has no [[tier]] sections".to_string());
    }
    Ok(spec)
}

fn emit_str(out: &mut String, key: &str, value: &str) {
    let _ = writeln!(out, "{key} = \"{value}\"");
}

fn emit_int(out: &mut String, key: &str, value: u64) {
    let _ = writeln!(out, "{key} = {value}");
}

/// Emits the canonical TOML for `spec`: fixed key order, every field
/// explicit, shape-relevant keys only. `emit(parse(emit(spec)))` is
/// byte-identical to `emit(spec)`.
#[must_use]
pub fn emit_toml(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    emit_str(&mut out, "name", &spec.name);
    emit_int(&mut out, "seed", spec.seed);
    emit_int(&mut out, "horizon", spec.horizon);
    emit_int(&mut out, "ways_min", u64::from(spec.ways_min));
    emit_int(&mut out, "ways_max", u64::from(spec.ways_max));
    for tier in &spec.tiers {
        out.push('\n');
        out.push_str("[[tier]]\n");
        emit_str(&mut out, "name", &tier.name);
        emit_int(&mut out, "sources", u64::from(tier.sources));
        emit_int(&mut out, "mean_inter_arrival", tier.mean_inter_arrival);
        match tier.shape {
            ArrivalShape::Steady => emit_str(&mut out, "shape", "steady"),
            ArrivalShape::Diurnal { period, swing_pct } => {
                emit_str(&mut out, "shape", "diurnal");
                emit_int(&mut out, "period", period);
                emit_int(&mut out, "swing_pct", u64::from(swing_pct));
            }
            ArrivalShape::Bursty {
                period,
                on_pct,
                burst_div,
            } => {
                emit_str(&mut out, "shape", "bursty");
                emit_int(&mut out, "period", period);
                emit_int(&mut out, "on_pct", u64::from(on_pct));
                emit_int(&mut out, "burst_div", u64::from(burst_div));
            }
        }
        emit_int(&mut out, "size_base", tier.size.base);
        emit_int(&mut out, "size_tail_pct", u64::from(tier.size.tail_pct));
        emit_int(&mut out, "size_tail_cap", u64::from(tier.size.tail_cap));
        emit_int(&mut out, "strict_pct", u64::from(tier.mix.strict_pct));
        emit_int(&mut out, "elastic_pct", u64::from(tier.mix.elastic_pct));
        emit_int(
            &mut out,
            "elastic_slack_pct",
            u64::from(tier.mix.elastic_slack_pct),
        );
        emit_int(
            &mut out,
            "deadline_slack_pct",
            u64::from(tier.deadline_slack_pct),
        );
        emit_int(&mut out, "drain_every", tier.drain_every);
        emit_int(&mut out, "queue_capacity", tier.queue_capacity as u64);
        emit_int(&mut out, "bucket_capacity", tier.bucket_capacity);
        emit_int(&mut out, "refill_interval", tier.refill_interval);
        emit_int(&mut out, "breaker_window", u64::from(tier.breaker_window));
        emit_int(
            &mut out,
            "breaker_threshold_pct",
            u64::from(tier.breaker_threshold_pct),
        );
        emit_int(&mut out, "breaker_cooldown", tier.breaker_cooldown);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_a_fixed_point_for_seeded_specs() {
        for seed in 0..24u64 {
            let spec = ScenarioSpec::seeded(seed);
            let text = emit_toml(&spec);
            let parsed = parse_toml(&text).expect("canonical text parses");
            assert_eq!(parsed, spec, "seed {seed}: parse(emit(spec)) != spec");
            assert_eq!(emit_toml(&parsed), text, "seed {seed}: emit not canonical");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
# a scenario
name = \"demo\"
seed = 7

[[tier]]
name = \"only\"
shape = \"bursty\"
period = 1000 # trailing comment
on_pct = 30
burst_div = 4
";
        let spec = parse_toml(text).expect("parses");
        assert_eq!(spec.name, "demo");
        assert_eq!(
            spec.tiers[0].shape,
            ArrivalShape::Bursty {
                period: 1000,
                on_pct: 30,
                burst_div: 4
            }
        );
    }

    #[test]
    fn trailing_comments_on_headers_and_strings_are_ignored() {
        let text = "\
name = \"annotated\"
seed = 3
[[tier]]   # latency-sensitive traffic
name = \"premium\"
shape = \"steady\"  # Poisson arrivals
";
        let spec = parse_toml(text).expect("parses");
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.tiers[0].name, "premium");
        assert_eq!(spec.tiers[0].shape, ArrivalShape::Steady);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_toml("name = \"x\"\nbogus_key = 3\n[[tier]]\nname = \"t\"\n")
            .expect_err("unknown key rejected");
        assert!(err.contains("line 2"), "{err}");
        let err = parse_toml("name = \"x\"\n[[tier]]\nname = \"t\"\nshape = \"square\"\n")
            .expect_err("unknown shape rejected");
        assert!(err.contains("square"), "{err}");
        let err = parse_toml("seed = 3\n").expect_err("missing name rejected");
        assert!(err.contains("name"), "{err}");
        let err = parse_toml("name = \"x\"\n").expect_err("no tiers rejected");
        assert!(err.contains("tier"), "{err}");
    }

    #[test]
    fn integers_past_a_fields_type_are_line_numbered_errors() {
        // (key, one past its type's range, the tier shape it needs; no
        // shape = a header key).
        for (key, value, shape) in [
            ("ways_min", "65536", None),
            ("ways_max", "65536", None),
            ("sources", "4294967296", Some("steady")),
            ("swing_pct", "4294967296", Some("diurnal")),
            ("on_pct", "4294967296", Some("bursty")),
            ("burst_div", "4294967296", Some("bursty")),
            ("size_tail_pct", "4294967296", Some("steady")),
            ("size_tail_cap", "4294967296", Some("steady")),
            ("strict_pct", "4294967296", Some("steady")),
            ("elastic_pct", "4294967296", Some("steady")),
            ("elastic_slack_pct", "4294967296", Some("steady")),
            ("deadline_slack_pct", "4294967296", Some("steady")),
            ("breaker_window", "4294967296", Some("steady")),
            ("breaker_threshold_pct", "4294967296", Some("steady")),
        ] {
            let text = match shape {
                None => format!("name = \"x\"\n{key} = {value}\n[[tier]]\nname = \"t\"\n"),
                Some(shape) => format!(
                    "name = \"x\"\n[[tier]]\nname = \"t\"\nshape = \"{shape}\"\n{key} = {value}\n"
                ),
            };
            let line = if shape.is_none() { 2 } else { 5 };
            let err = parse_toml(&text).expect_err(key);
            assert_eq!(
                err,
                format!("line {line}: `{key}` = {value} is out of range"),
                "{key}"
            );
            // One less fits the type; as many tenants or as deep a burst
            // then exceeds the arrivals cap instead.
            let fits = text.replace(value, &(value.parse::<u64>().unwrap() - 1).to_string());
            match parse_toml(&fits) {
                Ok(_) => {}
                Err(err) => assert!(
                    matches!(key, "sources" | "burst_div") && err.contains("expected arrivals"),
                    "{key}: {err}"
                ),
            }
        }
        // `queue_capacity` is a `usize`, which holds every `u64` on a
        // 64-bit host.
        let text = format!(
            "name = \"x\"\n[[tier]]\nname = \"t\"\nqueue_capacity = {}\n",
            u64::MAX
        );
        match (parse_toml(&text), usize::try_from(u64::MAX)) {
            (Ok(spec), Ok(max)) => assert_eq!(spec.tiers[0].queue_capacity, max),
            (Err(err), Err(_)) => assert!(err.starts_with("line 4: `queue_capacity`"), "{err}"),
            (got, _) => panic!("queue_capacity = u64::MAX: {got:?}"),
        }
    }

    #[test]
    fn cycle_keys_above_the_cap_are_line_numbered_errors() {
        let cap = MAX_CYCLES;
        for (key, shape) in [
            ("horizon", None),
            ("mean_inter_arrival", Some("steady")),
            ("period", Some("diurnal")),
            ("period", Some("bursty")),
            ("size_base", Some("steady")),
            ("drain_every", Some("steady")),
            ("refill_interval", Some("steady")),
            ("breaker_cooldown", Some("steady")),
        ] {
            let text = |value: u64| match shape {
                None => format!("name = \"x\"\n{key} = {value}\n[[tier]]\nname = \"t\"\n"),
                Some(shape) => format!(
                    "name = \"x\"\nhorizon = 1\n[[tier]]\nname = \"t\"\nshape = \"{shape}\"\n\
                     {key} = {value}\n"
                ),
            };
            let line = if shape.is_none() { 2 } else { 6 };
            for value in [cap + 1, u64::MAX] {
                assert_eq!(
                    parse_toml(&text(value)),
                    Err(format!(
                        "line {line}: `{key}` = {value} is above the cap of {cap} cycles"
                    )),
                    "{key} = {value}"
                );
            }
            if key != "horizon" {
                assert!(parse_toml(&text(cap)).is_ok(), "{key} = {cap}");
            }
        }
    }

    #[test]
    fn expected_arrivals_and_drain_rounds_are_capped() {
        // Two sources, one arrival per 2,000 cycles each, and a burst that
        // quadruples the rate: 2 × 4 × horizon / 2,000 arrivals.
        let spec = |horizon: u64, drain_every: u64| {
            format!(
                "name = \"x\"\nhorizon = {horizon}\n[[tier]]\nname = \"t\"\nsources = 2\n\
                 mean_inter_arrival = 2000\nshape = \"bursty\"\nburst_div = 4\n\
                 drain_every = {drain_every}\n"
            )
        };
        let at_cap = 2_000 * (1 << 20) / 8;
        assert!(parse_toml(&spec(at_cap, at_cap)).is_ok());
        // Each source's share rounds up: 2 × ⌈524,288.002⌉.
        let err = parse_toml(&spec(at_cap + 1, at_cap)).expect_err("arrivals past the cap");
        assert!(
            err.starts_with("line 2: `horizon` = 262144001 gives 1048578 expected arrivals"),
            "{err}"
        );
        // 2^20 drain rounds of one cycle each fit; one more does not.
        assert!(parse_toml(&spec(1 << 20, 1)).is_ok());
        let err = parse_toml(&spec((1 << 20) + 1, 1)).expect_err("one drain round too many");
        assert!(
            err.starts_with("line 2: `horizon` = 1048577 gives 1048577 drain rounds"),
            "{err}"
        );
        // Without a `horizon` key, the error points at the tier that
        // crossed the cap.
        let err = parse_toml(
            "name = \"x\"\n[[tier]]\nname = \"a\"\n[[tier]]\nname = \"b\"\n\
             sources = 200000\n",
        )
        .expect_err("200,002 sources × 100 arrivals");
        assert!(err.starts_with("line 4: `horizon` = 200000 gives"), "{err}");
        assert!(err.contains("tier `b`"), "{err}");
    }

    #[test]
    fn errors_quote_a_short_prefix_of_a_long_key_or_value() {
        let long = "é".repeat(100_000);
        for text in [
            format!("name = \"x\"\n{long} = 1\n"),
            format!("name = \"x\"\n{long} = 1\n{long} = 2\n"),
            format!("name = \"x\"\nseed = {long}\n"),
            format!("name = \"x\"\n[{long}]\n"),
            format!("name = \"x\"\n[[tier]]\nname = \"{long}\"\nshape = \"{long}\"\n"),
        ] {
            let err = parse_toml(&text).expect_err("refused");
            assert!(err.len() < 256 && err.contains('…'), "{err}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse_toml("name = \"x\"\nname = \"y\"\n").expect_err("dup rejected");
        assert!(err.contains("duplicate"), "{err}");
    }
}
