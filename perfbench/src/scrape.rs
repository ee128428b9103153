//! Reading the server's `ltam-obs` series from a `KIND_METRICS` scrape.

use crate::stats::BucketHist;
use ltam_obs::Exposition;

/// One parsed, validated scrape of the server's registry.
#[derive(Debug, Clone, Default)]
pub struct Scrape(Exposition);

impl Scrape {
    /// Parse and validate exposition text.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        ltam_obs::validate(text)
            .map(Scrape)
            .map_err(|e| format!("invalid metrics scrape: {e}"))
    }

    /// A counter or gauge sample with exactly `labels` (0 when absent:
    /// series are registered on first use).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.0.value(name, labels).unwrap_or(0.0)
    }

    /// The sum of a family over all its label sets.
    pub fn family_sum(&self, name: &str) -> f64 {
        self.0.family_sum(name)
    }

    /// The histogram `name` with exactly `labels` (besides `le`).
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> BucketHist {
        let bucket_name = format!("{name}_bucket");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .samples
            .iter()
            .filter(|s| s.name == bucket_name)
            .filter_map(|s| {
                let mut le = None;
                let mut rest = Vec::new();
                for (k, v) in &s.labels {
                    if k == "le" {
                        le = v.parse::<f64>().ok();
                    } else {
                        rest.push((k.as_str(), v.as_str()));
                    }
                }
                let mut wanted = labels.to_vec();
                wanted.sort_unstable();
                rest.sort_unstable();
                (rest == wanted).then_some(())?;
                le.filter(|l| l.is_finite()).map(|l| (l, s.value))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        BucketHist {
            buckets,
            sum: self.value(&format!("{name}_sum"), labels),
            count: self.value(&format!("{name}_count"), labels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_histograms_and_counters_back() {
        let text = "\
# HELP lat_seconds Latency
# TYPE lat_seconds histogram
lat_seconds_bucket{kind=\"a\",le=\"0.001\"} 3
lat_seconds_bucket{kind=\"a\",le=\"0.002\"} 4
lat_seconds_bucket{kind=\"a\",le=\"+Inf\"} 4
lat_seconds_sum{kind=\"a\"} 0.005
lat_seconds_count{kind=\"a\"} 4
lat_seconds_bucket{kind=\"b\",le=\"0.5\"} 1
lat_seconds_bucket{kind=\"b\",le=\"+Inf\"} 1
lat_seconds_sum{kind=\"b\"} 0.4
lat_seconds_count{kind=\"b\"} 1
# HELP hits_total Hits
# TYPE hits_total counter
hits_total{outcome=\"x\"} 7
hits_total{outcome=\"y\"} 5
";
        let s = Scrape::parse(text).expect("valid");
        let a = s.hist("lat_seconds", &[("kind", "a")]);
        assert_eq!(a.buckets, vec![(0.001, 3.0), (0.002, 4.0)]);
        assert_eq!(a.count, 4.0);
        assert_eq!(a.percentile(50.0), 0.001);
        assert_eq!(a.percentile(99.0), 0.002);
        assert_eq!(
            s.hist("lat_seconds", &[("kind", "b")]).percentile(50.0),
            0.5
        );
        assert_eq!(s.hist("lat_seconds", &[("kind", "c")]).count, 0.0);
        assert_eq!(s.value("hits_total", &[("outcome", "x")]), 7.0);
        assert_eq!(s.value("missing_total", &[]), 0.0);
        assert_eq!(s.family_sum("hits_total"), 12.0);
        assert!(Scrape::parse("not a metric line {").is_err());
    }
}
