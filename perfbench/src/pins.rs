//! Reference outputs pinned from the commit that introduced the
//! benchmark (`perfbench/pins.json`, compiled in).
//!
//! Every value is stored as the hex of its IEEE-754 bits so a pin is
//! exact. `E^F2` pins are compared bit for bit; Figure 10 per-point mean
//! NEC pins within [`FIG10_NEC_RTOL`].

use esched_obs::json::{parse, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Relative tolerance of the Figure 10 per-point mean NEC check.
pub const FIG10_NEC_RTOL: f64 = 1e-4;

/// Hex of an `f64`'s bits.
pub fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Inverse of [`hex`].
pub fn unhex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Pinned reference values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pins {
    /// Per offline workload: instance (`stream+offset`) → `E^F2`.
    pub offline: BTreeMap<String, BTreeMap<String, f64>>,
    /// Figure 10 base seed → per-point mean NEC `[ideal, i1, f1, i2, f2]`.
    pub fig10: BTreeMap<u64, Vec<[f64; 5]>>,
}

impl Pins {
    /// Parse the pin file format.
    pub fn from_json(v: &Value) -> Option<Self> {
        let mut pins = Pins::default();
        let Value::Obj(top) = v else { return None };
        for (key, body) in top {
            let Value::Obj(entries) = body else {
                return None;
            };
            for (id, val) in entries {
                if key == "paper_fig10" {
                    let rows = val
                        .as_array()?
                        .iter()
                        .map(|row| {
                            let r = row.as_array()?;
                            let mut out = [0.0; 5];
                            for (o, x) in out.iter_mut().zip(r) {
                                *o = unhex(x.as_str()?)?;
                            }
                            (r.len() == 5).then_some(out)
                        })
                        .collect::<Option<Vec<_>>>()?;
                    pins.fig10.insert(id.parse().ok()?, rows);
                } else {
                    pins.offline
                        .entry(key.clone())
                        .or_default()
                        .insert(id.clone(), unhex(val.as_str()?)?);
                }
            }
        }
        Some(pins)
    }

    /// The pin file format.
    pub fn to_json(&self) -> Value {
        let mut top: Vec<(String, Value)> = self
            .offline
            .iter()
            .map(|(w, m)| {
                let entries = m
                    .iter()
                    .map(|(id, e)| (id.clone(), Value::Str(hex(*e))))
                    .collect();
                (w.clone(), Value::Obj(entries))
            })
            .collect();
        let fig10 = self
            .fig10
            .iter()
            .map(|(s, rows)| {
                let rows = rows
                    .iter()
                    .map(|r| Value::Arr(r.iter().map(|x| Value::Str(hex(*x))).collect()))
                    .collect();
                (s.to_string(), Value::Arr(rows))
            })
            .collect();
        top.push(("paper_fig10".to_string(), Value::Obj(fig10)));
        Value::Obj(top)
    }

    /// The compiled-in pins.
    pub fn embedded() -> &'static Pins {
        static PINS: OnceLock<Pins> = OnceLock::new();
        PINS.get_or_init(|| {
            let v = parse(include_str!("../pins.json")).expect("pins.json parses");
            Pins::from_json(&v).expect("pins.json has the pin format")
        })
    }
}
