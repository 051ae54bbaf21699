//! The on-disk regression corpus: shrunk minimal repros as JSON.
//!
//! Both case kinds share one format: the case's own JSON object (an
//! [`Instance`](crate::Instance), or an
//! [`OnlineScript`](crate::OnlineScript), which adds `events` to the
//! instance keys) with two metadata keys in front — `oracle`, the failing
//! class name, and `message`, the violation detail at the time it was
//! found. The case parsers ignore the extras, so a corpus file
//! deserializes straight back into a replayable case. Plain
//! instances live in `corpus/`, online scripts in `corpus/online/`.
//!
//! Filenames are `<class>-<fnv64 of the case JSON>.json`: content
//! addressing dedups repeated discoveries of the same shrunk case across
//! fuzz runs, and the class prefix keeps the directory readable.

use crate::case::FuzzCase;
use crate::oracles::OracleViolation;
use esched_obs::json::{ToJson, Value};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a — a dependency-free stable content hash for filenames.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize a corpus entry: the case plus oracle metadata.
pub fn corpus_entry<C: ToJson>(case: &C, violation: &OracleViolation) -> String {
    let mut obj = match case.to_json() {
        Value::Obj(pairs) => pairs,
        _ => unreachable!("fuzz cases serialize to objects"),
    };
    obj.insert(
        0,
        ("oracle".into(), Value::Str(violation.class.name().into())),
    );
    obj.insert(1, ("message".into(), Value::Str(violation.message.clone())));
    Value::Obj(obj).to_string_pretty()
}

/// Write a shrunk repro into `dir`, creating the directory if needed.
/// Returns `Ok(Some(path))` for a new entry, `Ok(None)` when an identical
/// case (same content hash for the same class) is already present.
///
/// # Errors
/// Propagates filesystem errors from creating the directory or file.
pub fn write_corpus<C: ToJson>(
    dir: &Path,
    case: &C,
    violation: &OracleViolation,
) -> io::Result<Option<PathBuf>> {
    fs::create_dir_all(dir)?;
    // Hash only the case (not the message) so the same shrunk case found
    // via differently-worded violations dedups.
    let hash = fnv1a(case.to_json().to_string_pretty().as_bytes());
    let path = dir.join(format!("{}-{hash:016x}.json", violation.class.name()));
    if path.exists() {
        return Ok(None);
    }
    fs::write(&path, corpus_entry(case, violation))?;
    Ok(Some(path))
}

/// Load every `*.json` corpus entry directly under `dir`, sorted by
/// filename for deterministic replay order. A missing directory is an
/// empty corpus.
///
/// # Errors
/// Propagates filesystem errors; malformed entries surface as
/// [`io::ErrorKind::InvalidData`] naming the offending file.
pub fn load_corpus_dir<C: FuzzCase>(dir: &Path) -> io::Result<Vec<(PathBuf, C)>> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)?;
        let case = C::from_json_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corpus entry {} is malformed: {e}", path.display()),
            )
        })?;
        out.push((path, case));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::online::OnlineScript;
    use crate::oracles::OracleClass;
    use esched_engine::OnlineEvent;
    use esched_types::{PolynomialPower, TaskSet};
    use std::fmt::Debug;

    fn sample() -> Instance {
        Instance::new(
            TaskSet::from_triples(&[(0.0, 4.0, 2.0)]),
            2,
            PolynomialPower::cubic(),
        )
    }

    fn violation(class: OracleClass) -> OracleViolation {
        OracleViolation {
            class,
            message: "test repro".into(),
        }
    }

    /// Write `case` twice (the second write must dedup), load the
    /// directory back and demand the same case under a `<class>-` name.
    fn assert_round_trips_and_dedups<C: FuzzCase + PartialEq + Debug>(
        case: &C,
        class: OracleClass,
        tag: u32,
    ) {
        let dir =
            std::env::temp_dir().join(format!("esched-check-corpus-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let first = write_corpus(&dir, case, &violation(class)).unwrap();
        assert!(first.is_some());
        let again = write_corpus(&dir, case, &violation(class)).unwrap();
        assert!(again.is_none(), "identical repro must dedup");
        let loaded: Vec<(PathBuf, C)> = load_corpus_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(&loaded[0].1, case);
        assert!(loaded[0]
            .0
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with(&format!("{}-", class.name())));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_then_load_round_trips_and_dedups() {
        assert_round_trips_and_dedups(&sample(), OracleClass::Packing, 0);
        let script = OnlineScript {
            instance: sample(),
            events: vec![OnlineEvent::Complete {
                task: 0,
                actual_work: 1.5,
            }],
        };
        assert_round_trips_and_dedups(&script, OracleClass::Online, 1);
    }

    #[test]
    fn missing_dir_is_empty_corpus() {
        let dir = Path::new("/nonexistent/esched-check-nowhere");
        assert!(load_corpus_dir::<Instance>(dir).unwrap().is_empty());
    }

    #[test]
    fn entry_carries_oracle_metadata() {
        let text = corpus_entry(&sample(), &violation(OracleClass::Packing));
        assert!(text.contains("\"oracle\": \"packing\""));
        assert!(text.contains("\"message\": \"test repro\""));
        // And still parses back as a plain instance.
        assert!(Instance::from_json_str(&text).is_ok());
    }
}
