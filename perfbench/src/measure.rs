//! Statistics, memory readings, output checks and the in-memory span
//! recorder shared by every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vase::diag::json::Json;

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between order statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// process) in MiB, read from `/proc`.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Minor page faults, user and system CPU seconds of this process so
/// far, from `/proc/self/stat` (clock ticks at the usual 100 Hz).
pub fn own_usage() -> Option<(u64, f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let field = |i: usize| rest.get(i).and_then(|v| v.parse::<u64>().ok());
    Some((
        field(7)?,
        field(11)? as f64 / 100.0,
        field(12)? as f64 / 100.0,
    ))
}

/// Total, stolen and busy CPU ticks of the whole machine, from
/// `/proc/stat` (stolen: time the host ran something else while this
/// machine's virtual CPUs were ready to run; busy: user, nice, system,
/// irq and softirq time).
pub fn cpu_ticks() -> Option<(u64, u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    let busy = [0, 1, 2, 5, 6]
        .iter()
        .map(|&i| ticks.get(i))
        .sum::<Option<u64>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?, busy))
}

/// Collects output-check failures; the run is correct when it holds
/// none. Only the first few messages are kept.
#[derive(Default)]
pub struct Checker {
    pub problems: Vec<String>,
    pub count: u64,
}

impl Checker {
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.count += 1;
            if self.problems.len() < 20 {
                self.problems.push(message());
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.count == 0
    }
}

/// `|a - b| <= rel * max(|a|, |b|)`.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs())
}

/// Run whole rounds, numbered from 1 (round 0 is the set-up's warm-up),
/// until `seconds` have passed — exactly one round when `one_round`.
/// Returns the number of rounds run.
pub fn timed_rounds(
    seconds: f64,
    one_round: bool,
    mut round: impl FnMut(u64) -> Result<(), String>,
) -> Result<u64, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    loop {
        rounds += 1;
        round(rounds)?;
        if one_round || start.elapsed() >= budget {
            return Ok(rounds);
        }
    }
}

/// Steal share between two [`cpu_ticks`] readings: stolen ticks over
/// stolen and busy ticks, i.e. the share of the time this machine's
/// virtual CPUs had work to run that the host gave to someone else
/// (0 when unknown).
fn steal_share(before: Option<(u64, u64, u64)>, after: Option<(u64, u64, u64)>) -> f64 {
    match (before, after) {
        (Some((_, s0, b0)), Some((_, s1, b1))) if s1 + b1 > s0 + b0 => {
            (s1 - s0) as f64 / ((s1 - s0) + (b1 - b0)) as f64
        }
        _ => 0.0,
    }
}

/// Shortest measurement window, seconds.
const WINDOW_S: f64 = 1.0;

/// A timed run cut into windows of whole rounds, each at least
/// [`WINDOW_S`] long, with one rate and one latency per window.
///
/// This benchmark runs on virtual CPUs of a shared host, which takes
/// them away for a share of the time that moves between ~0 and over a
/// third within seconds and between runs ("steal", counted by the guest
/// kernel in `/proc/stat`). Stolen time stretches every wall-clock
/// figure and is none of the program's doing, so each window's rate is
/// divided, and its latency multiplied, by `1 − steal share` of the
/// window. The reported figures are the medians over the run's windows,
/// which a few windows that the correction misses (steal also slows
/// wake-ups and cools caches beyond its own length) do not move.
pub struct Windows {
    start: Instant,
    ticks: Option<(u64, u64, u64)>,
    rates: Vec<f64>,
    latencies_us: Vec<f64>,
    steal: Vec<f64>,
}

impl Default for Windows {
    fn default() -> Self {
        Windows {
            start: Instant::now(),
            ticks: cpu_ticks(),
            rates: Vec::new(),
            latencies_us: Vec::new(),
            steal: Vec::new(),
        }
    }
}

impl Windows {
    /// Wall time of the current window so far, seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether the current window is long enough to close.
    pub fn due(&self) -> bool {
        self.elapsed_s() >= WINDOW_S
    }

    /// Close the current window with its wall-clock rate (1/s) and
    /// latency (µs), correcting both for the window's steal share, and
    /// start the next.
    pub fn close(&mut self, rate: f64, latency_us: f64) {
        let ticks = cpu_ticks();
        let share = steal_share(self.ticks, ticks);
        self.steal.push(share);
        self.rates.push(rate / (1.0 - share));
        self.latencies_us.push(latency_us * (1.0 - share));
        self.start = Instant::now();
        self.ticks = ticks;
    }

    /// Close the current window with the latencies (µs) of the
    /// operations it ran one after another, which it takes: its rate is
    /// operations per second of their time, its latency their median.
    pub fn close_ops(&mut self, latencies_us: &mut Vec<f64>) {
        let busy_s = latencies_us.iter().sum::<f64>() * 1e-6;
        self.close(latencies_us.len() as f64 / busy_s, median(latencies_us));
        latencies_us.clear();
    }

    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Every window's corrected rate, in run order (for the results
    /// file).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Every window's steal share, in run order (for the results file).
    pub fn steal(&self) -> &[f64] {
        &self.steal
    }

    /// Every window's corrected latency (µs), in run order (for the
    /// results file).
    pub fn latencies_us(&self) -> &[f64] {
        &self.latencies_us
    }

    /// `ops_per_s`: the median corrected window rate.
    pub fn rate(&self) -> f64 {
        median(&self.rates)
    }

    /// `latency_p50_ms`'s value in µs: the median corrected window
    /// latency.
    pub fn latency_us(&self) -> f64 {
        median(&self.latencies_us)
    }
}

/// Time `reps` repetitions of a set-up step, keeping the last result:
/// returns it with the [`SetupClock`] time in seconds.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut clock = SetupClock::default();
    let mut last = None;
    for rep in 0..reps.max(1) {
        last = Some(clock.time(|| setup(rep))?);
    }
    Ok((
        last.expect("at least one set-up repetition"),
        clock.seconds(),
    ))
}

/// Times of a set-up step, run several times, with the host's steal
/// during them (see [`Windows`]). A step shorter than the kernel's
/// 10 ms accounting tick cannot be corrected on its own, but stolen and
/// busy ticks summed over many steps give their steal share, and the
/// mean step time times `1 − share` is the set-up time with stolen time
/// taken out.
#[derive(Default)]
pub struct SetupClock {
    times: Vec<f64>,
    stolen: u64,
    busy: u64,
}

impl SetupClock {
    /// Run and time one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let before = cpu_ticks();
        let t0 = Instant::now();
        let out = setup()?;
        self.times.push(t0.elapsed().as_secs_f64());
        if let (Some((_, s0, b0)), Some((_, s1, b1))) = (before, cpu_ticks()) {
            self.stolen += s1.saturating_sub(s0);
            self.busy += b1.saturating_sub(b0);
        }
        Ok(out)
    }

    /// Mean set-up time with stolen time taken out, seconds.
    pub fn seconds(&self) -> f64 {
        let share = if self.stolen + self.busy > 0 {
            self.stolen as f64 / (self.stolen + self.busy) as f64
        } else {
            0.0
        };
        mean(&self.times) * (1.0 - share)
    }

    pub fn reps(&self) -> usize {
        self.times.len()
    }
}

/// Mix a run seed with up to three coordinates into one generator seed
/// (SplitMix64 finalizer), so every input of every round is a pure
/// function of `--seed`.
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ c.wrapping_mul(0x1656_67B1_9E37_79F9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64, 0, 0) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// At most this many spans are kept for the trace file; aggregates
/// cover every span regardless.
const MAX_SPANS: usize = 50_000;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<u32>,
    start_us: f64,
    end_us: f64,
}

/// An open span handed back by [`Recorder::begin`].
pub struct Open {
    name: &'static str,
    index: Option<u32>,
    start: Instant,
}

/// In-memory span and counter recorder for traced runs.
///
/// Spans (name, start, end, parent, operation) are recorded around calls
/// into a layer's public functions; per operation, the time of each span
/// name and each counter are summed, and the per-operation totals are
/// what the per-layer metrics summarize. A disabled recorder records
/// nothing.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Option<u32>>,
    op: u64,
    op_times: BTreeMap<&'static str, f64>,
    op_counts: BTreeMap<&'static str, f64>,
    times: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, Vec<f64>>,
    dropped: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            op_times: BTreeMap::new(),
            op_counts: BTreeMap::new(),
            times: BTreeMap::new(),
            counts: BTreeMap::new(),
            dropped: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Index of the current operation.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// Start a new operation; its spans and counters are summed
    /// separately from the previous one's.
    pub fn begin_op(&mut self) {
        self.end_op();
        self.op += 1;
    }

    /// Close the current operation (also done by the next
    /// [`begin_op`](Recorder::begin_op)).
    pub fn end_op(&mut self) {
        for (name, us) in std::mem::take(&mut self.op_times) {
            self.times.entry(name).or_default().push(us);
        }
        for (name, n) in std::mem::take(&mut self.op_counts) {
            self.counts.entry(name).or_default().push(n);
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open {
                name,
                index: None,
                start: Instant::now(),
            };
        }
        let start = Instant::now();
        let index = if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.stack.last().copied().flatten(),
                start_us: micros(start - self.origin),
                end_us: f64::NAN,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(index);
        Open { name, index, start }
    }

    /// Close `open`, returning its duration in microseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let us = micros(end - open.start);
        if !self.on {
            return us;
        }
        self.stack.pop();
        if let Some(i) = open.index {
            self.spans[i as usize].end_us = micros(end - self.origin);
        }
        self.add_time(open.name, us);
        us
    }

    /// Add a duration measured elsewhere to the current operation.
    pub fn add_time(&mut self, name: &'static str, us: f64) {
        if self.on {
            *self.op_times.entry(name).or_default() += us;
        }
    }

    /// Time of span `name` so far in the current operation, µs.
    pub fn op_time(&self, name: &str) -> f64 {
        self.op_times.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.op_counts.entry(name).or_default() += n;
        }
    }

    /// Per-operation totals of span `name` (µs), one per operation that
    /// ran it.
    pub fn times(&self, name: &str) -> &[f64] {
        self.times.get(name).map_or(&[], Vec::as_slice)
    }

    /// Per-operation totals of counter `name`.
    pub fn counts(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median per-operation time of span `name`, µs (0 when never run).
    pub fn median_us(&self, name: &str) -> f64 {
        let t = self.times(name);
        if t.is_empty() {
            0.0
        } else {
            median(t)
        }
    }

    /// Mean per-operation value of counter `name` (0 when never set).
    pub fn mean_count(&self, name: &str) -> f64 {
        let c = self.counts(name);
        if c.is_empty() {
            0.0
        } else {
            mean(c)
        }
    }

    /// Total of counter `count` per second of total span `span` time
    /// (0 when the span never ran).
    pub fn rate(&self, count: &str, span: &str) -> f64 {
        let us: f64 = self.times(span).iter().sum();
        if us <= 0.0 {
            0.0
        } else {
            self.counts(count).iter().sum::<f64>() / (us * 1e-6)
        }
    }

    /// The recorded spans in Chrome trace-event form (one thread per
    /// operation), for `chrome://tracing` or Perfetto.
    pub fn trace_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .filter(|s| s.end_us.is_finite())
            .map(|s| {
                let mut args = vec![("op", Json::Int(s.op as i128))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::str(self.spans[p as usize].name)));
                }
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(s.op as i128)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("droppedSpans", Json::Int(self.dropped as i128)),
        ])
    }
}
