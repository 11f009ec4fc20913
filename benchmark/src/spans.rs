//! Host-time spans around the calls the benchmark makes into the program.
//!
//! Spans are kept in memory and written once, at exit, as a Chrome trace
//! (`chrome://tracing`, <https://ui.perfetto.dev>). A recorder that is off
//! runs the wrapped call directly, so the untraced run pays one branch.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span; [`SpanId::NONE`] when there is no parent or
/// the recorder is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span.
    pub const NONE: SpanId = SpanId(0);
}

/// Track of the benchmark's own thread; rank `r` of a world records on
/// track `r + 1`.
pub const MAIN_TRACK: u32 = 0;

struct Span {
    name: &'static str,
    parent: SpanId,
    track: u32,
    iteration: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Spans {
    on: bool,
    origin: Instant,
    /// Iteration stamped on new spans. Set by the run loop between worlds
    /// (thread spawn orders it before every rank's read), so `Relaxed`.
    iteration: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            iteration: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Stamp subsequent spans with this iteration number.
    pub fn set_iteration(&self, iteration: u32) {
        self.iteration.store(iteration, Ordering::Relaxed);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("no span holder panics while locked").len()
    }

    /// Run `f` inside a span called `name` under `parent` on `track`; `f`
    /// receives the new span's id so that nested calls can name it as their
    /// parent. Rank bodies run on their own threads, hence the explicit
    /// parent instead of a per-thread stack.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        track: u32,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.on {
            return f(SpanId::NONE);
        }
        let iteration = self.iteration.load(Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let id = {
            let mut spans = self.spans.lock().expect("no span holder panics while locked");
            spans.push(Span { name, parent, track, iteration, start_ns, end_ns: start_ns });
            SpanId(spans.len() as u32)
        };
        let result = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("no span holder panics while locked")[id.0 as usize - 1].end_ns =
            end_ns;
        result
    }

    /// Write every span as one complete (`"ph":"X"`) Chrome trace event;
    /// `args` carries the span id, its parent and the iteration.
    pub fn write_chrome_trace(&self, path: &std::path::Path, process: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("no span holder panics while locked");
        write!(
            w,
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{{\"ph\":\"M\",\"pid\":1,\
             \"name\":\"process_name\",\"args\":{{\"name\":\"{process} (host time, width 1)\"}}}}"
        )?;
        for (i, s) in spans.iter().enumerate() {
            write!(
                w,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}\",\
                 \"args\":{{\"id\":{},\"parent\":{},\"iteration\":{}}}}}",
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.name,
                i + 1,
                s.parent.0,
                s.iteration
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}
