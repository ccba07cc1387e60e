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

    /// Overwrites `section.name` with `value`, registering it if needed
    /// (checkpoint restore). No-op when disabled, preserving the
    /// disabled-sink-is-inert invariant.
    pub fn restore_counter(&mut self, section: &str, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let c = self.counter(section, name);
        if let Some(v) = self.counters.get_mut(c.0 as usize) {
            *v = value;
        }
    }

    /// Overwrites gauge `section.name` with `value` (checkpoint
    /// restore). No-op when disabled.
    pub fn restore_gauge(&mut self, section: &str, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let g = self.gauge(section, name);
        if let Some(v) = self.gauges.get_mut(g.0 as usize) {
            *v = value;
        }
    }

    /// Overwrites histogram `name` wholesale (checkpoint restore). The
    /// snapshot's bucket layout wins; `counts` is padded/truncated to
    /// `bounds.len() + 1` so a corrupted doc cannot desync the overflow
    /// bucket. No-op when disabled.
    pub fn restore_histogram(
        &mut self,
        name: &str,
        bounds: &[u64],
        counts: &[u64],
        count: u64,
        sum: u64,
    ) {
        if !self.enabled {
            return;
        }
        let h = self.histogram(name, bounds);
        if let Some(hist) = self.hists.get_mut(h.0 as usize) {
            hist.bounds = bounds.to_vec();
            let mut c = counts.to_vec();
            c.resize(bounds.len() + 1, 0);
            hist.counts = c;
            hist.count = count;
            hist.sum = sum;
        }
    }
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
}
