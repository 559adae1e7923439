//! Property tests for the one decoder layer over the three cascade file
//! formats, `Format::{Native, EchoFlow, DeepHawkes}`: every dataset a
//! format represents exactly is sniffed as that format and decodes back to
//! itself, and no corruption of one — truncation, byte flips, dropped or
//! copied lines, bad numbers, non-finite or huge times, giant retweet
//! counts, duplicate ids or users, reordered times — panics or yields a
//! cascade that fails validation. On every format the strict read fails
//! exactly when the lenient report is not clean, with the report's first
//! entry as its error, and the report is in line order.

use std::ops::Range;

use cascn_cascades::io::{dataset_to_string, ReadError};
use cascn_cascades::{echoflow_to_string, validate_events, Cascade, Dataset, Event, Format};
use proptest::prelude::*;

mod common;
use common::{copy_line, drop_line, flip_byte, pick, truncate, BAD_NUMBERS};

const FORMATS: [Format; 3] = [Format::Native, Format::EchoFlow, Format::DeepHawkes];

/// A test-only DeepHawkes encoder: one line per cascade, each event written
/// as the chain of users from the root down to it, then `:<time>`.
fn deephawkes_to_string(dataset: &Dataset) -> String {
    let mut out = String::new();
    for c in &dataset.cascades {
        let paths: Vec<String> = (0..c.events.len())
            .map(|i| {
                let mut chain = vec![c.events[i].user.to_string()];
                let mut at = i;
                while let Some(p) = c.events[at].parent {
                    chain.push(c.events[p].user.to_string());
                    at = p;
                }
                chain.reverse();
                format!("{}:{}", chain.join("/"), c.events[i].time)
            })
            .collect();
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            c.id,
            c.events[0].user,
            c.start_time,
            c.events.len() - 1,
            paths.join(" ")
        ));
    }
    out
}

fn encode(format: Format, dataset: &Dataset) -> String {
    match format {
        Format::Native => dataset_to_string(dataset),
        Format::EchoFlow => echoflow_to_string(dataset),
        Format::DeepHawkes => deephawkes_to_string(dataset),
    }
}

/// Strategy: a format and a dataset it represents exactly. Every format
/// gets distinct cascade ids (EchoFlow joins rows by topic id) and distinct
/// users within a cascade (EchoFlow keeps a user's first adoption, and a
/// DeepHawkes path names its parent by user). Start times and event times
/// are multiples of 1/4 far below 2^50, so EchoFlow's absolute `start + t`
/// and its difference back are exact. Beyond that, EchoFlow cascades are
/// star DAGs (the format has no reshare edges), and DeepHawkes times rise
/// strictly after the root (the decoder orders tied paths by length). The
/// native format gets any other valid cascade: any earlier parent, tied
/// times.
fn format_and_dataset() -> impl Strategy<Value = (Format, Dataset)> {
    let cascade = (
        0u64..1000,
        -200_000i32..200_000,
        proptest::collection::vec((0u64..50, 0.0f64..1.0, 0u32..12), 1..=12),
    );
    (0..FORMATS.len(), proptest::collection::vec(cascade, 1..=5)).prop_map(|(which, specs)| {
        let format = FORMATS[which];
        let cascades = specs
            .into_iter()
            .enumerate()
            .map(|(k, (id, start, draws))| {
                let (mut user, mut time) = (0u64, 0.0f64);
                let events = draws
                    .into_iter()
                    .enumerate()
                    .map(|(i, (user_gap, u, gap))| {
                        user += 1 + user_gap;
                        if i > 0 {
                            let gap = if format == Format::DeepHawkes { gap + 1 } else { gap };
                            time += f64::from(gap) * 0.75;
                        }
                        let parent = match (i, format) {
                            (0, _) => None,
                            (_, Format::EchoFlow) => Some(0),
                            _ => Some(((u * i as f64) as usize).min(i - 1)),
                        };
                        Event { user: user ^ 0x5a5a, parent, time }
                    })
                    .collect();
                Cascade::try_new(id * 8 + k as u64, f64::from(start) * 0.25, events)
                    .expect("the generator builds valid cascades")
            })
            .collect();
        (format, Dataset::new("prop", cascades))
    })
}

/// What a field of an encoded file holds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A cascade, topic or message id.
    Id,
    User,
    Parent,
    Time,
    /// A DeepHawkes retweet count.
    Count,
}

/// The byte ranges of the fields of `text`, an encoding in `format` that
/// earlier corruptions may have damaged, with what each holds.
fn fields(format: Format, text: &str) -> Vec<(Range<usize>, Kind)> {
    let mut out = Vec::new();
    let mut push = |field: &str, kind: Kind| {
        let start = field.as_ptr() as usize - text.as_ptr() as usize;
        out.push((start..start + field.len(), kind));
    };
    for line in text.lines() {
        match format {
            Format::Native => {
                let toks: Vec<&str> = line.split(' ').collect();
                let kinds: &[Kind] = match toks[0] {
                    "cascade" => &[Kind::Id, Kind::Time],
                    "event" => &[Kind::User, Kind::Parent, Kind::Time],
                    _ => &[],
                };
                toks[1..].iter().zip(kinds).for_each(|(tok, &kind)| push(tok, kind));
            }
            Format::EchoFlow if line.starts_with("user_id") => {}
            Format::EchoFlow => {
                let kinds = [Kind::User, Kind::Id, Kind::Time];
                line.split(',').zip(kinds).for_each(|(tok, kind)| push(tok, kind));
            }
            Format::DeepHawkes => {
                let toks: Vec<&str> = line.split('\t').collect();
                let head = [Kind::Id, Kind::User, Kind::Time, Kind::Count];
                toks.iter().zip(head).for_each(|(tok, kind)| push(tok, kind));
                let paths = toks.get(4).into_iter().flat_map(|p| p.split(' '));
                for (chain, time) in paths.filter_map(|path| path.rsplit_once(':')) {
                    chain.split('/').for_each(|user| push(user, Kind::User));
                    push(time, Kind::Time);
                }
            }
        }
    }
    out
}

/// `text` with each range replaced by its string; the ranges are disjoint.
fn splice(text: &str, mut edits: Vec<(Range<usize>, String)>) -> String {
    edits.sort_by_key(|(range, _)| std::cmp::Reverse(range.start));
    let mut out = text.to_string();
    for (range, value) in edits {
        out.replace_range(range, &value);
    }
    out
}

/// Times that are not finite, or whose sums and differences are not.
const BAD_TIMES: &[&str] = &["NaN", "inf", "-inf", "+inf", "1e400", "1e308", "-1e308"];

/// Retweet counts far from any cascade's size, up to `u64::MAX` and past it.
const GIANT_COUNTS: &[&str] =
    &["18446744073709551615", "18446744073709551614", "9223372036854775808", "4294967296"];

/// `text` with line `line` moved to before line `to % lines`: reordered
/// records, and EchoFlow topics interleaved.
fn move_line(text: &str, line: usize, to: usize) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let moved = lines.remove(line);
    lines.insert(to % (lines.len() + 1), moved);
    lines.join("\n")
}

/// Corruption families [`corrupt`] chooses from.
const FAMILIES: u32 = 11;

/// One corruption of `text`, an encoding in `format`, chosen by `choice`
/// and placed by `at` and `byte`: a format-agnostic one from `common`, a
/// moved line, or one aimed at the format's fields.
fn corrupt(format: Format, text: &str, choice: f64, at: f64, byte: usize) -> String {
    let fields = fields(format, text);
    let of = |kind: Option<Kind>| -> Vec<Range<usize>> {
        fields
            .iter()
            .filter(|(_, k)| kind.is_none_or(|kind| *k == kind))
            .map(|(range, _)| range.clone())
            .collect()
    };
    // A field of `kind` set to one of `values`.
    let replace = |kind: Option<Kind>, values: &[&str]| {
        let ranges = of(kind);
        if ranges.is_empty() {
            return text.to_string();
        }
        let value = values[byte % values.len()].to_string();
        splice(text, vec![(ranges[pick(at, ranges.len())].clone(), value)])
    };
    // One field of `kind` copied onto another (`swap`: the two exchanged).
    let copy = |kind: Kind, swap: bool| {
        let ranges = of(Some(kind));
        if ranges.len() < 2 {
            return text.to_string();
        }
        let (a, b) = (ranges[pick(at, ranges.len())].clone(), ranges[byte % ranges.len()].clone());
        if a == b {
            return text.to_string();
        }
        let mut edits = vec![(b.clone(), text[a.clone()].to_string())];
        if swap {
            edits.push((a, text[b].to_string()));
        }
        splice(text, edits)
    };
    let lines = text.lines().count();
    match (choice * f64::from(FAMILIES)) as usize {
        0 => truncate(text, at),
        1 => flip_byte(text, at, byte),
        2 if lines > 0 => drop_line(text, pick(at, lines)),
        3 if lines > 0 => copy_line(text, pick(at, lines), byte),
        4 if lines > 0 => move_line(text, pick(at, lines), byte),
        5 => replace(None, BAD_NUMBERS),
        6 => replace(Some(Kind::Time), BAD_TIMES),
        7 => replace(Some(Kind::Count), GIANT_COUNTS),
        8 => copy(Kind::Id, false),
        9 => copy(Kind::User, false),
        _ => copy(Kind::Time, true),
    }
}

/// What every accepted cascade must satisfy: the loader's invariants and a
/// finite start time.
fn assert_valid(c: &Cascade) -> Result<(), String> {
    prop_assert!(validate_events(&c.events).is_ok(), "{:?}", validate_events(&c.events));
    prop_assert!(c.start_time.is_finite(), "non-finite start time {} accepted", c.start_time);
    Ok(())
}

/// The decoder contract on any input: no panic; strict reads an `Err` or
/// valid cascades; lenient keeps only valid cascades and reports in line
/// order; strict fails exactly when the lenient report is not clean, with
/// its first entry, and otherwise reads what lenient reads.
fn check_contract(format: Format, text: &str) -> Result<(), String> {
    let strict = format.read(text, "prop");
    let (lenient, report) = format.read_lenient(text, "prop");
    prop_assert_eq!(report.kept, lenient.cascades.len());
    for c in &lenient.cascades {
        assert_valid(c)?;
    }
    prop_assert!(
        report.quarantined.windows(2).all(|w| w[0].line <= w[1].line),
        "report out of line order:\n{}",
        report.summary()
    );
    match strict {
        Ok(d) => {
            let summary = report.summary();
            prop_assert!(report.is_clean(), "strict accepted, lenient quarantined:\n{}", summary);
            prop_assert_eq!((&d.name, &d.cascades), (&lenient.name, &lenient.cascades));
        }
        Err(ReadError::Parse { line, message }) => {
            let Some(first) = report.quarantined.first() else {
                return Err(format!("strict refused at line {line} ({message}), lenient is clean"));
            };
            prop_assert_eq!((first.line, &first.reason), (line, &message));
        }
        Err(ReadError::Io(e)) => prop_assert!(false, "a text decoder did I/O: {}", e),
    }
    Ok(())
}

/// Each format's encoding of one small cascade, for the fixed cases below.
fn fig1() -> Dataset {
    let events = vec![
        Event { user: 100, parent: None, time: 0.0 },
        Event { user: 101, parent: Some(0), time: 10.0 },
        Event { user: 102, parent: Some(0), time: 20.0 },
    ];
    Dataset::new("prop", vec![Cascade::try_new(42, 1000.0, events).expect("valid")])
}

#[test]
fn the_encoders_write_what_the_decoders_read() {
    for format in FORMATS {
        let text = encode(format, &fig1());
        assert_eq!(Format::sniff(&text), format, "{text}");
        let back = format.read(&text, "prop").expect("a valid encoding reads back");
        assert_eq!(back.cascades, fig1().cascades, "{format:?}");
    }
}

/// Every corruption family, applied at several places to each format's
/// encoding of one cascade, keeps the contract (a fixed sweep beside the
/// random one below).
#[test]
fn every_corruption_family_keeps_the_contract() {
    for format in FORMATS {
        let text = encode(format, &fig1());
        for family in 0..FAMILIES {
            for (at, byte) in [(0.0, 0), (0.3, 7), (0.6, 101), (0.99, 333)] {
                let choice = (f64::from(family) + 0.5) / f64::from(FAMILIES);
                let corrupted = corrupt(format, &text, choice, at, byte);
                if let Err(e) = check_contract(format, &corrupted) {
                    panic!("{format:?}, family {family}: {e}\n{corrupted}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn valid_datasets_round_trip_in_every_format(case in format_and_dataset()) {
        let (format, d) = case;
        let text = encode(format, &d);
        prop_assert_eq!(Format::sniff(&text), format);
        match format.read(&text, "prop") {
            Ok(back) => prop_assert_eq!((&back.name, &back.cascades), (&d.name, &d.cascades)),
            Err(e) => prop_assert!(false, "{:?} refused a valid dataset: {}\n{}", format, e, text),
        }
        let (back, report) = format.read_lenient(&text, "prop");
        prop_assert!(report.is_clean(), "{}", report.summary());
        prop_assert_eq!(&back.cascades, &d.cascades);
    }
}

proptest! {
    // A fault order only a few corruption sequences reach (two faulty
    // EchoFlow topics reported out of line order) takes ~2000 cases to
    // find reliably; one case costs microseconds.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Up to three corruptions in a row, so one file can carry faults in
    /// several cascades, out of their first-seen order.
    #[test]
    fn corrupted_files_keep_the_contract_in_every_format(
        case in format_and_dataset(),
        corruptions in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..1000), 1..=3),
    ) {
        let (format, d) = case;
        let text = corruptions.into_iter().fold(encode(format, &d), |text, (choice, at, byte)| {
            corrupt(format, &text, choice, at, byte)
        });
        check_contract(format, &text)?;
    }
}
