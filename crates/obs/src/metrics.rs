//! The metrics registry: monotonic counters, high-water gauges, and
//! fixed-bucket histograms behind `Copy` index handles.
//!
//! Handles are issued at registration time and are plain `u32` indices
//! into dense vectors, so a record call through a disabled registry is
//! one branch on a bool and an enabled one is a bounds-checked add —
//! cheap enough for the engine's per-event hot loop.
//!
//! All values are `u64` counts or sim-time quantities; nothing here may
//! ever hold a wall-clock reading (see crate docs and lint rule D5).

use serde::{Deserialize, Serialize};

/// `(section, name, value)`: one counter or gauge in a checkpoint.
type ValueRow = (String, String, u64);

/// `(name, bounds, counts, count, sum)`: one histogram in a checkpoint.
type HistRow = (String, Vec<u64>, Vec<u64>, u64, u64);

/// The metrics sink's checkpoint section (`obs.metrics`): the registry
/// and the time series, which are armed together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct MetricsSnap {
    /// `(section, name, value)` for every counter, registration order.
    counters: Vec<ValueRow>,
    /// `(section, name, value)` for every gauge, registration order.
    gauges: Vec<ValueRow>,
    /// `(name, bounds, counts, count, sum)` for every histogram.
    hists: Vec<HistRow>,
    /// Raw buckets of every time series, in [`crate::TsSeries::ALL`]
    /// order.
    pub(crate) timeseries: Vec<Vec<u64>>,
}

/// Handle to a monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u32);

/// Handle to a high-water gauge (`set_max` semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge(u32);

/// Handle to a fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

#[derive(Debug, Clone)]
struct Hist {
    name: String,
    /// Upper bounds (inclusive) of each finite bucket, ascending; one
    /// implicit overflow bucket follows.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

/// Dense metric store. Created once per run; handles from one registry
/// must not be used against another (they are bare indices).
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    counter_meta: Vec<(String, String)>,
    counters: Vec<u64>,
    gauge_meta: Vec<(String, String)>,
    gauges: Vec<u64>,
    hists: Vec<Hist>,
}

impl Registry {
    /// A registry with collection on or off. Registration works either
    /// way (handles must exist so instrumented code is identical on
    /// both paths); only *recording* is gated.
    pub fn new(enabled: bool) -> Self {
        Registry {
            enabled,
            counter_meta: Vec::new(),
            counters: Vec::new(),
            gauge_meta: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Whether record calls do anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or re-uses) a counter under `section.name`. Returns
    /// the existing handle if the pair is already registered, so
    /// collect-time code may re-derive handles by name.
    pub fn counter(&mut self, section: &str, name: &str) -> Counter {
        for (i, (s, n)) in self.counter_meta.iter().enumerate() {
            if s == section && n == name {
                return Counter(i as u32);
            }
        }
        let id = self.counters.len() as u32;
        self.counter_meta.push((section.to_string(), name.to_string()));
        self.counters.push(0);
        Counter(id)
    }

    /// Registers (or re-uses) a high-water gauge under `section.name`.
    pub fn gauge(&mut self, section: &str, name: &str) -> Gauge {
        for (i, (s, n)) in self.gauge_meta.iter().enumerate() {
            if s == section && n == name {
                return Gauge(i as u32);
            }
        }
        let id = self.gauges.len() as u32;
        self.gauge_meta.push((section.to_string(), name.to_string()));
        self.gauges.push(0);
        Gauge(id)
    }

    /// Registers (or re-uses) a fixed-bucket histogram. `bounds` are
    /// ascending inclusive upper bounds; an overflow bucket is implied.
    pub fn histogram(&mut self, name: &str, bounds: &[u64]) -> HistId {
        for (i, h) in self.hists.iter().enumerate() {
            if h.name == name {
                return HistId(i as u32);
            }
        }
        let id = self.hists.len() as u32;
        self.hists.push(Hist {
            name: name.to_string(),
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        });
        HistId(id)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Increments a counter by `n` (saturating; telemetry must never
    /// panic the engine).
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        if self.enabled {
            if let Some(v) = self.counters.get_mut(c.0 as usize) {
                *v = v.saturating_add(n);
            }
        }
    }

    /// Raises a high-water gauge to `v` if `v` exceeds its current
    /// value.
    #[inline]
    pub fn set_max(&mut self, g: Gauge, v: u64) {
        if self.enabled {
            if let Some(cur) = self.gauges.get_mut(g.0 as usize) {
                if v > *cur {
                    *cur = v;
                }
            }
        }
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, h: HistId, v: u64) {
        if self.enabled {
            if let Some(hist) = self.hists.get_mut(h.0 as usize) {
                let idx = hist
                    .bounds
                    .iter()
                    .position(|&b| v <= b)
                    .unwrap_or(hist.bounds.len());
                if let Some(slot) = hist.counts.get_mut(idx) {
                    *slot += 1;
                }
                hist.count += 1;
                hist.sum = hist.sum.saturating_add(v);
            }
        }
    }

    /// Current value of a counter (0 for a foreign handle).
    #[cfg(test)]
    pub(crate) fn counter_value(&self, c: Counter) -> u64 {
        self.counters.get(c.0 as usize).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    #[cfg(test)]
    pub(crate) fn gauge_value(&self, g: Gauge) -> u64 {
        self.gauges.get(g.0 as usize).copied().unwrap_or(0)
    }

    /// Iterates `(section, name, value)` over all counters in
    /// registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counter_meta
            .iter()
            .zip(self.counters.iter())
            .map(|((s, n), &v)| (s.as_str(), n.as_str(), v))
    }

    /// Iterates `(section, name, value)` over all gauges.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.gauge_meta
            .iter()
            .zip(self.gauges.iter())
            .map(|((s, n), &v)| (s.as_str(), n.as_str(), v))
    }

    /// Iterates `(name, bounds, counts, count, sum)` over histograms.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &[u64], &[u64], u64, u64)> {
        self.hists
            .iter()
            .map(|h| (h.name.as_str(), h.bounds.as_slice(), h.counts.as_slice(), h.count, h.sum))
    }

    /// The metrics checkpoint section: every counter, gauge and
    /// histogram, each in registration order, beside the time series'
    /// `timeseries` buckets.
    pub(crate) fn snap(&self, timeseries: Vec<Vec<u64>>) -> MetricsSnap {
        let row = |(s, n, v): (&str, &str, u64)| (s.to_string(), n.to_string(), v);
        let hists = self
            .hists
            .iter()
            .map(|h| (h.name.clone(), h.bounds.clone(), h.counts.clone(), h.count, h.sum))
            .collect();
        MetricsSnap {
            counters: self.counters().map(row).collect(),
            gauges: self.gauges().map(row).collect(),
            hists,
            timeseries,
        }
    }

    /// Overwrites every metric from the registry part of a checkpoint
    /// section, by position. The section must name the registered
    /// counters, gauges and histograms, each list in registration
    /// order, and every histogram must keep its registered bounds and
    /// carry one count per bucket, overflow included; anything else is
    /// refused. No-op when disabled, preserving the
    /// disabled-sink-is-inert invariant.
    pub(crate) fn restore(&mut self, snap: &MetricsSnap) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let MetricsSnap { counters, gauges, hists, .. } = snap;
        same_names("counters", counters, &self.counter_meta)?;
        same_names("gauges", gauges, &self.gauge_meta)?;
        if hists.len() != self.hists.len() {
            return Err(format!("hists holds {} histograms, want {}", hists.len(), self.hists.len()));
        }
        for ((name, bounds, counts, count, sum), hist) in hists.iter().zip(&mut self.hists) {
            if *name != hist.name || hist.bounds != *bounds || counts.len() != bounds.len() + 1 {
                return Err(format!(
                    "histogram {name} has bounds {bounds:?} and {} counts, the registry has \
                     {} with bounds {:?} and {} buckets",
                    counts.len(),
                    hist.name,
                    hist.bounds,
                    hist.counts.len()
                ));
            }
            hist.counts.clone_from(counts);
            hist.count = *count;
            hist.sum = *sum;
        }
        self.counters = counters.iter().map(|row| row.2).collect();
        self.gauges = gauges.iter().map(|row| row.2).collect();
        Ok(())
    }
}

/// Checks that checkpoint `rows` name exactly the registered `meta`
/// `(section, name)` pairs, in registration order.
fn same_names(list: &str, rows: &[ValueRow], meta: &[(String, String)]) -> Result<(), String> {
    for (i, ((s, n, _), (ms, mn))) in rows.iter().zip(meta).enumerate() {
        if s != ms || n != mn {
            return Err(format!("{list}[{i}] is {s}.{n}, the registry registers {ms}.{mn} there"));
        }
    }
    if rows.len() == meta.len() {
        return Ok(());
    }
    Err(format!("{list} holds {} entries, the registry registers {}", rows.len(), meta.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registration_is_idempotent() {
        let mut r = Registry::new(true);
        let a = r.counter("engine", "x");
        let b = r.counter("engine", "x");
        assert_eq!(a, b);
        let c = r.counter("faults", "x");
        assert_ne!(a, c);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.counter_value(a), 3);
    }

    #[test]
    fn gauge_is_high_water() {
        let mut r = Registry::new(true);
        let g = r.gauge("engine", "hw");
        r.set_max(g, 5);
        r.set_max(g, 3);
        r.set_max(g, 9);
        assert_eq!(r.gauge_value(g), 9);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut r = Registry::new(true);
        let h = r.histogram("fanout", &[0, 1, 3]);
        for v in [0, 0, 1, 2, 3, 10] {
            r.observe(h, v);
        }
        let (name, bounds, counts, count, sum) =
            r.histograms().next().expect("histogram registered");
        assert_eq!(name, "fanout");
        assert_eq!(bounds, &[0, 1, 3]);
        // <=0: two, <=1: one, <=3: two (2 and 3), overflow: one (10)
        assert_eq!(counts, &[2, 1, 2, 1]);
        assert_eq!(count, 6);
        assert_eq!(sum, 16);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let mut r = Registry::new(false);
        let c = r.counter("engine", "x");
        let g = r.gauge("engine", "g");
        let h = r.histogram("h", &[1]);
        r.inc(c);
        r.set_max(g, 7);
        r.observe(h, 1);
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.gauge_value(g), 0);
        let (_, _, counts, count, _) = r.histograms().next().expect("registered");
        assert_eq!(count, 0);
        assert!(counts.iter().all(|&c| c == 0));
    }

    /// A section restores only into a registry that registered the same
    /// names in the same order; a reordered row is refused.
    #[test]
    fn restore_takes_only_the_registered_names() {
        let registry = || {
            let mut r = Registry::new(true);
            r.counter("engine", "a");
            r.counter("faults", "b");
            r.gauge("engine", "g");
            r.histogram("h", &[1]);
            r
        };
        let mut src = registry();
        let b = src.counter("faults", "b");
        src.add(b, 7);
        let mut snap = src.snap(Vec::new());
        let mut dst = registry();
        dst.restore(&snap).expect("same registry");
        assert_eq!(dst.counter_value(b), 7);

        snap.counters.swap(0, 1);
        let err = dst.restore(&snap).expect_err("reordered counters");
        assert!(err.contains("counters[0] is faults.b"), "{err}");
    }
}
