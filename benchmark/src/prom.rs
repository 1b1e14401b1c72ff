//! Reading the server's own counters off the wire.
//!
//! The `metrics` verb streams Prometheus text exposition and `stats` one
//! `key=value` line; a per-layer *wire* metric is the difference of two
//! such scrapes taken around a step, so it needs no probe inside the
//! server.

use std::collections::BTreeMap;

/// One scrape: every sample of a `metrics` response by its full series
/// name (labels included, `_bucket` series dropped), plus every numeric
/// field of a `stats` line under `stats.<key>`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses exposition text (`# TYPE` comments skipped).
    pub fn parse_metrics(text: &str) -> Scrape {
        let mut values = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((name, value)) = line.rsplit_once(' ') else { continue };
            if name.contains("_bucket{") {
                continue;
            }
            if let Ok(v) = value.parse::<f64>() {
                values.insert(name.to_string(), v);
            }
        }
        Scrape { values }
    }

    /// Folds the numeric `key=value` fields of a `stats` line in as
    /// `stats.<key>`.
    pub fn add_stats(&mut self, line: &str) {
        for kv in line.split_whitespace() {
            if let Some((k, v)) = kv.split_once('=') {
                if let Ok(v) = v.parse::<f64>() {
                    self.values.insert(format!("stats.{k}"), v);
                }
            }
        }
    }

    /// A sample's value; a series the server has not touched yet is absent
    /// from the exposition and reads as 0, which is what a counter that
    /// never moved is.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// The change between two scrapes of one server process.
#[derive(Clone, Debug)]
pub struct Delta<'a> {
    /// The scrape before the step.
    pub before: &'a Scrape,
    /// The scrape after the step.
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// How far a counter (or a histogram's `_sum` / `_count`) moved.
    pub fn counter(&self, name: &str) -> f64 {
        self.after.get(name) - self.before.get(name)
    }

    /// Mean of the observations a histogram took during the step:
    /// Δ`_sum` / Δ`_count`. `None` when it took none.
    pub fn hist_mean(&self, name: &str) -> Option<f64> {
        let count = self.counter(&format!("{name}_count"));
        (count > 0.0).then(|| self.counter(&format!("{name}_sum")) / count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE strata_group_apply_us histogram\n\
        strata_group_apply_us_bucket{le=\"127\"} 3\n\
        strata_group_apply_us_bucket{le=\"+Inf\"} 4\n\
        strata_group_apply_us_sum 400\n\
        strata_group_apply_us_count 4\n\
        # TYPE strata_wal_fsync_total counter\n\
        strata_wal_fsync_total 4\n\
        strata_events_total{kind=\"recovery\"} 1\n";

    const AFTER: &str = "strata_group_apply_us_bucket{le=\"+Inf\"} 14\n\
        strata_group_apply_us_sum 2400\n\
        strata_group_apply_us_count 14\n\
        strata_wal_fsync_total 15\n\
        strata_store_compactions_total 2\n";

    #[test]
    fn sum_and_count_deltas_give_the_steps_mean() {
        let before = Scrape::parse_metrics(BEFORE);
        let after = Scrape::parse_metrics(AFTER);
        assert_eq!(before.get("strata_group_apply_us_sum"), 400.0);
        assert_eq!(before.get("strata_events_total{kind=\"recovery\"}"), 1.0);
        assert_eq!(before.get("strata_group_apply_us_bucket{le=\"127\"}"), 0.0, "buckets dropped");
        let d = Delta { before: &before, after: &after };
        // 10 groups took 2000 us between the scrapes: 200 us each, not the
        // lifetime mean of 171.
        assert_eq!(d.hist_mean("strata_group_apply_us"), Some(200.0));
        assert_eq!(d.counter("strata_wal_fsync_total"), 11.0);
        // A series that first appears after the step counted from zero.
        assert_eq!(d.counter("strata_store_compactions_total"), 2.0);
        // No observations in the step: no mean.
        let same = Delta { before: &after, after: &after };
        assert_eq!(same.hist_mean("strata_group_apply_us"), None);
        assert_eq!(same.hist_mean("strata_never_seen_us"), None);
    }

    #[test]
    fn stats_fields_fold_in_and_skip_non_numeric_values() {
        let mut s = Scrape::default();
        s.add_stats("submitted=12 groups=3 recovered_torn_tail=false replay_mode=bulk");
        assert_eq!(s.get("stats.submitted"), 12.0);
        assert_eq!(s.get("stats.groups"), 3.0);
        assert_eq!(s.get("stats.replay_mode"), 0.0);
    }
}
