//! One fuzz instance: a task set, a core count, and a power model —
//! everything the oracle battery needs, JSON-round-trippable so failing
//! cases can be committed to the corpus and replayed.

use esched_obs::json::{type_error, FromJson, JsonError, ToJson, Value};
use esched_types::{PolynomialPower, TaskSet};

/// A self-contained scheduling problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// The task set.
    pub tasks: TaskSet,
    /// Number of cores `m`.
    pub cores: usize,
    /// The continuous power model.
    pub power: PolynomialPower,
}

impl Instance {
    /// Build an instance from parts.
    pub fn new(tasks: TaskSet, cores: usize, power: PolynomialPower) -> Self {
        assert!(cores >= 1, "need at least one core");
        Self {
            tasks,
            cores,
            power,
        }
    }
}

impl ToJson for Instance {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("cores", Value::Num(self.cores as f64)),
            ("power", self.power.to_json()),
            ("tasks", self.tasks.to_json().get("tasks").cloned().unwrap()),
        ])
    }
}

impl FromJson for Instance {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let cores = value
            .get("cores")
            .and_then(Value::as_u64)
            .ok_or_else(|| type_error("Instance: missing or non-integer field `cores`"))?;
        if cores == 0 {
            return Err(type_error("Instance: needs at least one core"));
        }
        let power = PolynomialPower::from_json(
            value
                .get("power")
                .ok_or_else(|| type_error("Instance: missing field `power`"))?,
        )?;
        // TaskSet::from_json expects the `{"tasks": [...]}` wrapper; the
        // instance object itself carries that key, so pass it through.
        let tasks = TaskSet::from_json(value)?;
        Ok(Self {
            tasks,
            cores: cores as usize,
            power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FuzzCase;

    #[test]
    fn json_round_trip() {
        let inst = Instance::new(
            TaskSet::from_triples(&[(0.0, 4.0, 2.0), (1.0, 5.0, 1.5)]),
            2,
            PolynomialPower::paper(3.0, 0.1),
        );
        let text = inst.to_json().to_string_pretty();
        let back = Instance::from_json_str(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn rejects_zero_cores_and_bad_tasks() {
        assert!(Instance::from_json_str(r#"{"cores":0,"power":{"gamma":1,"alpha":3,"p0":0},"tasks":[{"release":0,"deadline":1,"wcec":1}]}"#).is_err());
        assert!(Instance::from_json_str(
            r#"{"cores":1,"power":{"gamma":1,"alpha":3,"p0":0},"tasks":[]}"#
        )
        .is_err());
    }

    #[test]
    fn summary_mentions_shape() {
        let inst = Instance::new(
            TaskSet::from_triples(&[(0.0, 4.0, 2.0)]),
            3,
            PolynomialPower::cubic(),
        );
        assert_eq!(inst.summary(), "n=1 m=3 alpha=3 p0=0");
    }
}
