//! The metric catalogue, read from `BENCHMARK.json`, and the result record
//! a workload hands back to `main`.

use std::sync::OnceLock;

use cmosaic_serve::Json;

/// `(name, unit)` of every metric `BENCHMARK.json` lists, end-to-end
/// (index 0) and per layer (index 1). The file is compiled in, so the
/// names and units printed are the ones it declares.
fn catalogue() -> &'static [Vec<(String, String)>; 2] {
    static CATALOGUE: OnceLock<[Vec<(String, String)>; 2]> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let json = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid BENCHMARK.json");
        ["end_to_end", "per_layer"].map(|section| {
            let list = json.get(section).and_then(Json::as_arr).expect(section);
            list.iter()
                .map(|m| {
                    let field = |key: &str| m.get(key).and_then(Json::as_str).expect(key);
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        })
    })
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    catalogue()
        .iter()
        .flatten()
        .find(|(n, _)| n == name)
        .map(|(_, unit)| unit.as_str())
}

/// Names of the catalogued per-layer (`true`) or end-to-end metrics: the
/// metrics a traced or an untraced run reports, whatever its workload.
pub fn names(per_layer: bool) -> Vec<&'static str> {
    catalogue()[usize::from(per_layer)]
        .iter()
        .map(|(n, _)| n.as_str())
        .collect()
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value summarises (1 for a single count or reading).
    pub samples: usize,
}

/// What one workload invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes, scenario runs, searches, requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Measured metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric (`None` and non-finite values are skipped: not
    /// measurable here).
    pub fn push(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        debug_assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        if let Some(value) = value.filter(|v| v.is_finite()) {
            self.metrics.push(Metric {
                name,
                value,
                samples,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_have_units() {
        let all: Vec<&str> = names(false).into_iter().chain(names(true)).collect();
        assert!(all.contains(&"setup_s"));
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len());
        assert!(all.iter().all(|n| unit_of(n).is_some()));
    }
}
