//! Property tests for the decoders of the cascade line format: the request
//! parsers `stream::parse_cascades` (`/predict`) and
//! `stream::parse_observe_body` (`/observe`), and the file loaders
//! `io::dataset_from_str` and `io::dataset_from_str_lenient`. Every valid
//! input decodes to exactly what was encoded, and no corruption of one —
//! truncation, byte flips, giant numbers, NaN/±inf times, out-of-order
//! timestamps, forward parents, dropped or duplicated headers — panics,
//! breaks a limit, or yields a cascade that fails validation. The file
//! loaders agree with the request parser line for line: the same cascades,
//! or the same first error.

use cascn_cascades::io::{
    dataset_from_str, dataset_from_str_lenient, dataset_to_string, ReadError,
};
use cascn_cascades::stream::{parse_cascades, parse_observe_body, StreamLimits};
use cascn_cascades::{validate_events, Cascade, Dataset, Event, ObserveBody};
use proptest::prelude::*;

mod common;
use common::{copy_line, drop_line, flip_byte, pick, truncate, BAD_NUMBERS};

const LIMITS: StreamLimits = StreamLimits { max_cascades: 4, max_events: 24 };

/// The limits under which `parse_cascades` reads what the file loaders read.
const UNBOUNDED: StreamLimits = StreamLimits { max_cascades: usize::MAX, max_events: usize::MAX };

/// Strategy: a valid event list of `1..=max` events (root first, parents
/// earlier, times non-decreasing and sometimes tied).
fn events(max: usize) -> impl Strategy<Value = Vec<Event>> {
    (1..=max).prop_flat_map(|n| {
        proptest::collection::vec((0u64..1_000_000, 0.0f64..1.0, 0u32..40), n).prop_map(
            |draws| {
                let mut time = 0.0f64;
                draws
                    .into_iter()
                    .enumerate()
                    .map(|(i, (user, u, gap))| {
                        if i > 0 {
                            time += f64::from(gap / 4) * 0.75;
                        }
                        let parent = (i > 0).then(|| ((u * i as f64) as usize).min(i - 1));
                        Event { user, parent, time }
                    })
                    .collect()
            },
        )
    })
}

/// Strategy: a valid `/predict` body as the cascades it encodes.
fn cascades() -> impl Strategy<Value = Vec<Cascade>> {
    proptest::collection::vec((0u64..1000, 0u32..100_000, events(LIMITS.max_events)), 1..=4)
        .prop_map(|specs| {
            specs
                .into_iter()
                .map(|(id, start, ev)| Cascade::new(id, f64::from(start) * 0.5, ev))
                .collect()
        })
}

fn encode_cascades(cascades: &[Cascade]) -> String {
    dataset_to_string(&Dataset { name: "prop".into(), cascades: cascades.to_vec() })
}

/// Strategy: a valid `/observe` body extending `base_len` resident events
/// whose last time is `base_end`: a suffix whose parents index the whole
/// cascade.
fn observe_body(base_len: usize, base_end: f64) -> impl Strategy<Value = ObserveBody> {
    (0u64..1000, events(LIMITS.max_events)).prop_map(move |(id, ev)| ObserveBody {
        id,
        start_time: 0.0,
        events: ev
            .into_iter()
            .map(|e| Event {
                user: e.user,
                parent: Some(e.parent.map_or(base_len - 1, |p| p + base_len)),
                time: base_end + e.time,
            })
            .collect(),
    })
}

fn encode_observe(body: &ObserveBody) -> String {
    let mut out = format!("cascade {} {}\n", body.id, body.start_time);
    for e in &body.events {
        match e.parent {
            Some(p) => out.push_str(&format!("event {} {} {}\n", e.user, p, e.time)),
            None => out.push_str(&format!("event {} - {}\n", e.user, e.time)),
        }
    }
    out
}

/// The resident cascade observe bodies are appended to.
fn resident() -> Cascade {
    Cascade::new(
        9,
        0.0,
        vec![
            Event { user: 1, parent: None, time: 0.0 },
            Event { user: 2, parent: Some(0), time: 3.0 },
            Event { user: 3, parent: Some(0), time: 7.5 },
        ],
    )
}

/// One corruption of a valid body, chosen and placed by `choice` and `at`
/// (both uniform in `[0, 1)`).
fn mutate(text: &str, choice: f64, at: f64, byte: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let event_lines: Vec<usize> =
        (0..lines.len()).filter(|&i| lines[i].starts_with("event")).collect();
    let with_field = |field: usize, value: &dyn Fn(&str) -> String| -> String {
        let Some(&line) = event_lines.get(pick(at, event_lines.len())) else {
            return text.to_string();
        };
        let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let mut toks: Vec<String> = out[line].split(' ').map(str::to_string).collect();
        if field < toks.len() {
            toks[field] = value(&toks[field]);
        }
        out[line] = toks.join(" ");
        out.join("\n")
    };
    match (choice * 7.0) as usize {
        // Truncation anywhere, mid-token included.
        0 => truncate(text, at),
        // One flipped byte.
        1 => flip_byte(text, at, byte),
        // A giant, non-finite or garbage number in a user/parent/time
        // field, or in the header's id/start.
        2 => with_field(1 + byte % 3, &|_| BAD_NUMBERS[byte / 3 % BAD_NUMBERS.len()].to_string()),
        3 => {
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            if let Some(h) = out.iter_mut().find(|l| l.starts_with("cascade")) {
                let bad = BAD_NUMBERS[byte % BAD_NUMBERS.len()];
                *h = if byte.is_multiple_of(2) {
                    format!("cascade {bad} 0")
                } else {
                    format!("cascade 1 {bad}")
                };
            }
            out.join("\n")
        }
        // NaN / ±inf event times.
        4 => with_field(3, &|_| ["NaN", "inf", "-inf", "+inf"][byte % 4].to_string()),
        // A time moved back, often before its predecessor's.
        5 => with_field(3, &|t| {
            let t: f64 = t.parse().unwrap_or(0.0);
            format!("{}", t * 0.5 - 0.25 * (byte % 5) as f64)
        }),
        // A parent at or after the event's own index.
        _ => with_field(2, &|p| {
            let p: usize = p.parse().unwrap_or(0);
            format!("{}", p + 1000 + byte)
        }),
    }
}

/// A corruption of a dataset file: one of [`mutate`]'s, or a `cascade`
/// header dropped or copied to another line.
fn corrupt_dataset(text: &str, choice: f64, at: f64, byte: usize) -> String {
    if choice < 7.0 / 9.0 {
        return mutate(text, choice * 9.0 / 7.0, at, byte);
    }
    let lines: Vec<&str> = text.lines().collect();
    let headers: Vec<usize> =
        (0..lines.len()).filter(|&i| lines[i].starts_with("cascade")).collect();
    let Some(&h) = headers.get(pick(at, headers.len())) else {
        return text.to_string();
    };
    if choice < 8.0 / 9.0 {
        drop_line(text, h)
    } else {
        copy_line(text, h, byte)
    }
}

/// The line and message of a loader's error.
fn parse_error(err: ReadError) -> (usize, String) {
    match err {
        ReadError::Parse { line, message } => (line, message),
        ReadError::Io(e) => panic!("a text decoder did I/O: {e}"),
    }
}

/// What every accepted cascade must satisfy: the loader's invariants and
/// finite times, its start time included.
fn assert_valid(c: &Cascade) -> Result<(), String> {
    prop_assert!(validate_events(&c.events).is_ok(), "{:?}", validate_events(&c.events));
    prop_assert!(c.events.iter().all(|e| e.time.is_finite()), "non-finite time accepted");
    prop_assert!(c.start_time.is_finite(), "non-finite start time {} accepted", c.start_time);
    Ok(())
}

/// `text` with its `cascade` header's start time replaced by `start`.
fn with_start(text: &str, start: &str) -> String {
    text.lines()
        .map(|l| match l.strip_prefix("cascade ") {
            Some(rest) => format!("cascade {} {start}", rest.split(' ').next().unwrap_or("1")),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Start times every decoder must refuse: NaN and ±inf, spelled as the
/// float parser accepts them (`1e400` overflows to `inf`).
const NON_FINITE_STARTS: &[&str] = &["NaN", "nan", "inf", "+inf", "-inf", "1e400"];

/// What every accepted observe body must satisfy: within the limits, with
/// finite times, and — appended to a resident cascade — either refused or
/// leaving a cascade that passes validation.
fn assert_valid_observe(body: &ObserveBody) -> Result<(), String> {
    prop_assert!(!body.events.is_empty() && body.events.len() <= LIMITS.max_events);
    prop_assert!(body.events.iter().all(|e| e.time.is_finite()), "non-finite time accepted");
    prop_assert!(body.start_time.is_finite(), "non-finite start time {} accepted", body.start_time);
    let mut c = resident();
    if body.events.iter().all(|e| c.try_append(e.clone()).is_ok()) {
        assert_valid(&c)?;
    }
    Ok(())
}

/// Regression found by `corrupted_cascade_bodies_are_refused_or_valid`:
/// `parse_cascades` — and the strict loader and `Cascade::try_append`,
/// which share its checks — accepted NaN and ±inf event times, because
/// every ordering check compares false against NaN and `+inf` sorts last.
#[test]
fn non_finite_event_times_are_refused() {
    for t in ["NaN", "inf", "+inf", "-inf"] {
        let body = format!("cascade 1 0\nevent 1 - 0\nevent 2 0 {t}\n");
        let err = parse_cascades(&body, LIMITS).expect_err(t);
        assert!(err.to_string().contains("non-finite time"), "{err}");
        assert!(dataset_from_str(&body, "x").is_err(), "{t}");
        assert!(parse_observe_body(&body, LIMITS).is_err(), "{t}");
        let time: f64 = t.parse().expect("a float token");
        let mut c = resident();
        assert!(c.try_append(Event { user: 4, parent: Some(0), time }).is_err(), "{t}");
        assert!(validate_events(&[c.events[0].clone(), Event { user: 4, parent: Some(0), time }])
            .is_err());
    }
}

/// A decoder's error for a non-finite start time names the header line.
fn assert_start_refused(err: &dyn std::fmt::Display) {
    let err = err.to_string();
    assert!(err.contains("line 1") && err.contains("non-finite start time"), "{err}");
}

/// Regression: every text decoder accepted a NaN or ±inf cascade start
/// time (`parse_tok::<f64>` takes them and nothing checked the header), so
/// `cascn stats` loaded `cascade 1 NaN`.
#[test]
fn non_finite_start_time_is_refused_by_parse_cascades() {
    for t in NON_FINITE_STARTS {
        let body = format!("cascade 1 {t}\nevent 1 - 0\nevent 2 0 1\n");
        let err = parse_cascades(&body, LIMITS).expect_err(t);
        assert_start_refused(&err);
    }
}

#[test]
fn non_finite_start_time_is_refused_by_the_strict_loader() {
    for t in NON_FINITE_STARTS {
        let body = format!("cascade 1 {t}\nevent 1 - 0\nevent 2 0 1\n");
        let err = dataset_from_str(&body, "x").expect_err(t);
        assert_start_refused(&err);
    }
}

#[test]
fn non_finite_start_time_is_quarantined_by_the_lenient_loader() {
    for t in NON_FINITE_STARTS {
        let body = format!("cascade 1 {t}\nevent 1 - 0\nevent 2 0 1\ncascade 2 5\nevent 3 - 0\n");
        let (dataset, report) = dataset_from_str_lenient(&body, "x");
        assert_eq!(dataset.cascades.iter().map(|c| c.id).collect::<Vec<_>>(), [2], "{t}");
        assert_eq!(report.quarantined.len(), 1, "{t}");
        assert_eq!(report.quarantined[0].line, 1, "{t}");
        assert!(report.quarantined[0].reason.contains("non-finite start time"), "{t}");
    }
}

#[test]
fn non_finite_start_time_is_refused_by_parse_observe_body() {
    for t in NON_FINITE_STARTS {
        let body = format!("cascade 9 {t}\nevent 4 0 8\n");
        let err = parse_observe_body(&body, LIMITS).expect_err(t);
        assert_start_refused(&err);
    }
}

#[test]
fn non_finite_start_time_is_refused_by_cascade_try_new() {
    for t in NON_FINITE_STARTS {
        let start: f64 = t.parse().expect("a float token");
        let events = resident().events;
        assert!(Cascade::try_new(1, start, events).is_err(), "{t}");
    }
}

/// Regression: `parse_cascades` reported an empty trailing cascade at its
/// own header line while the strict loader reported it at the line after the
/// last; both now report the line after the last.
#[test]
fn empty_trailing_cascade_is_reported_after_the_last_line() {
    let body = "cascade 7 0.0\n";
    let want = (2, "cascade 7 has no events".to_string());
    assert_eq!(parse_error(dataset_from_str(body, "x").expect_err("strict")), want);
    assert_eq!(parse_error(parse_cascades(body, UNBOUNDED).expect_err("stream")), want);
    let (dataset, report) = dataset_from_str_lenient(body, "x");
    assert!(dataset.cascades.is_empty());
    assert_eq!((report.quarantined[0].line, &report.quarantined[0].reason), (want.0, &want.1));
}

/// Regression: at a malformed header after an empty cascade,
/// `parse_cascades` reported the header's field while the strict loader
/// reported the empty cascade; the pending cascade is now checked first by
/// every reader.
#[test]
fn empty_cascade_is_reported_before_a_malformed_header() {
    let body = "cascade 1 0.0\ncascade x 0.0\n";
    let want = (2, "cascade 1 has no events".to_string());
    assert_eq!(parse_error(dataset_from_str(body, "x").expect_err("strict")), want);
    assert_eq!(parse_error(parse_cascades(body, UNBOUNDED).expect_err("stream")), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn non_finite_headers_are_refused(
        cs in cascades(),
        body in observe_body(3, 7.5),
        which in 0usize..6,
    ) {
        let start = NON_FINITE_STARTS[which];
        let text = with_start(&encode_cascades(&cs), start);
        prop_assert!(parse_cascades(&text, LIMITS).is_err(), "{start} accepted:\n{text}");
        prop_assert!(dataset_from_str(&text, "x").is_err(), "{start} accepted:\n{text}");
        let (dataset, report) = dataset_from_str_lenient(&text, "x");
        prop_assert!(dataset.cascades.is_empty() && report.quarantined.len() == cs.len());
        let text = with_start(&encode_observe(&body), start);
        prop_assert!(parse_observe_body(&text, LIMITS).is_err(), "{start} accepted:\n{text}");
    }

    #[test]
    fn valid_cascade_bodies_decode_exactly(cs in cascades()) {
        match parse_cascades(&encode_cascades(&cs), LIMITS) {
            Ok(parsed) => prop_assert_eq!(parsed, cs),
            Err(e) => prop_assert!(false, "valid body refused: {}", e),
        }
    }

    #[test]
    fn valid_observe_bodies_decode_exactly(body in observe_body(3, 7.5)) {
        match parse_observe_body(&encode_observe(&body), LIMITS) {
            Ok(parsed) => prop_assert_eq!(&parsed, &body),
            Err(e) => prop_assert!(false, "valid body refused: {}", e),
        }
        let mut c = resident();
        for e in &body.events {
            prop_assert!(c.try_append(e.clone()).is_ok(), "valid suffix refused");
        }
        assert_valid(&c)?;
    }

    #[test]
    fn corrupted_cascade_bodies_are_refused_or_valid(
        cs in cascades(),
        pick in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0usize..1000,
    ) {
        let text = mutate(&encode_cascades(&cs), pick, at, byte);
        if let Ok(parsed) = parse_cascades(&text, LIMITS) {
            prop_assert!(parsed.len() <= LIMITS.max_cascades);
            for c in &parsed {
                prop_assert!(c.events.len() <= LIMITS.max_events);
                assert_valid(c)?;
            }
        }
    }

    #[test]
    fn corrupted_observe_bodies_are_refused_or_valid(
        body in observe_body(3, 7.5),
        pick in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0usize..1000,
    ) {
        let text = mutate(&encode_observe(&body), pick, at, byte);
        if let Ok(parsed) = parse_observe_body(&text, LIMITS) {
            assert_valid_observe(&parsed)?;
        }
    }

    #[test]
    fn bodies_over_the_limits_are_refused(
        cs in cascades(),
        extra in 1usize..4,
    ) {
        // One cascade past `max_cascades`, or one event past `max_events`.
        let mut many = cs.clone();
        while many.len() <= LIMITS.max_cascades {
            many.push(cs[0].clone());
        }
        prop_assert!(parse_cascades(&encode_cascades(&many), LIMITS).is_err());
        let long = ObserveBody {
            id: 1,
            start_time: 0.0,
            events: (0..LIMITS.max_events + extra)
                .map(|i| Event { user: i as u64, parent: Some(0), time: 8.0 })
                .collect(),
        };
        prop_assert!(parse_observe_body(&encode_observe(&long), LIMITS).is_err());
    }

    #[test]
    fn valid_datasets_round_trip(cs in cascades()) {
        let d = Dataset::new("prop", cs);
        let text = dataset_to_string(&d);
        match dataset_from_str(&text, "x") {
            Ok(back) => prop_assert_eq!((&back.name, &back.cascades), (&d.name, &d.cascades)),
            Err(e) => prop_assert!(false, "valid dataset refused: {}", e),
        }
        let (back, report) = dataset_from_str_lenient(&text, "x");
        prop_assert!(report.is_clean(), "{}", report.summary());
        prop_assert_eq!((&back.name, &back.cascades), (&d.name, &d.cascades));
    }

    #[test]
    fn the_file_loaders_agree_with_the_stream(
        cs in cascades(),
        pick in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0usize..1000,
    ) {
        let text = corrupt_dataset(&encode_cascades(&cs), pick, at, byte);
        let strict = dataset_from_str(&text, "x");
        let (lenient, report) = dataset_from_str_lenient(&text, "x");
        prop_assert_eq!(report.kept, lenient.cascades.len());
        for c in &lenient.cascades {
            assert_valid(c)?;
        }
        match (strict, parse_cascades(&text, UNBOUNDED)) {
            (Ok(d), Ok(streamed)) => {
                prop_assert!(report.is_clean(), "strict accepted, lenient quarantined:\n{}", report.summary());
                prop_assert_eq!(&d.cascades, &Dataset::new("x", streamed).cascades);
                prop_assert_eq!((&d.name, &d.cascades), (&lenient.name, &lenient.cascades));
            }
            (Err(e), Err(streamed)) => {
                let (line, message) = parse_error(e);
                prop_assert_eq!((line, message.clone()), parse_error(streamed));
                let Some(first) = report.quarantined.first() else {
                    return Err(format!("strict refused at line {line} ({message}), lenient is clean"));
                };
                prop_assert_eq!((first.line, &first.reason), (line, &message));
            }
            (strict, streamed) => prop_assert!(
                false,
                "strict {:?} but stream {:?} on:\n{}",
                strict.map(|d| d.cascades.len()),
                streamed.map(|c| c.len()),
                text
            ),
        }
    }
}
