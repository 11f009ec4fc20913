//! Chrome/Perfetto trace JSON export.
//!
//! Serializes one or more traced runs into the Chrome trace-event format
//! (the JSON flavour understood by `ui.perfetto.dev` and
//! `chrome://tracing`): one *process* per run (named after the run label),
//! one *thread track* per rank, one complete (`"X"`) duration event per
//! [`simcomm::TraceEvent`] — so the exported span count always equals the trace
//! record count — and flow arrows (`"s"`/`"f"` pairs) connecting every
//! matched `send`/`isend` post to its `recv` completion via the message
//! correlation id. Timestamps are virtual microseconds.
//!
//! The writer emits plain strings — no JSON library — because the format is
//! flat and append-only; `particles::json`'s parser round-trips the output in
//! tests.

use std::io::{self, Write};

use simcomm::{Trace, TraceKind};

/// Escape a string for a JSON string literal (labels and phase names).
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Seconds → microseconds (the trace-event format's time unit).
fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// Write one or more labelled runs as Chrome/Perfetto trace JSON.
///
/// Each `(label, traces)` pair becomes one process (pid = position + 1, so
/// several runs of a sweep land side by side in the UI); each rank becomes
/// one thread track. Every trace record is exported as exactly one `"X"`
/// event; matched send/recv pairs additionally get flow arrows. Open the
/// result at <https://ui.perfetto.dev>.
pub fn write_perfetto<W: Write>(mut w: W, runs: &[(&str, &[Trace])]) -> io::Result<()> {
    w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    let mut first = true;
    let mut buf = String::new();
    let emit = |w: &mut W, buf: &mut String, first: &mut bool| -> io::Result<()> {
        if !*first {
            w.write_all(b",\n")?;
        }
        *first = false;
        w.write_all(buf.as_bytes())?;
        buf.clear();
        Ok(())
    };

    for (run_idx, (label, traces)) in runs.iter().enumerate() {
        let pid = run_idx + 1;
        buf.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\""
        ));
        escape(label, &mut buf);
        buf.push_str("\"}}");
        emit(&mut w, &mut buf, &mut first)?;
        for rank in 0..traces.len() {
            buf.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{rank},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"rank {rank}\"}}}}"
            ));
            emit(&mut w, &mut buf, &mut first)?;
        }
        for trace in traces.iter() {
            for e in &trace.events {
                buf.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{rank},\"ts\":{ts},\"dur\":{dur},\
                     \"name\":\"{name}\",\"cat\":\"",
                    rank = e.rank,
                    ts = us(e.t_start),
                    dur = us(e.t_end - e.t_start),
                    name = e.kind.label(),
                ));
                escape(if e.phase.is_empty() { "(untagged)" } else { e.phase }, &mut buf);
                buf.push_str(&format!("\",\"args\":{{\"bytes\":{}", e.bytes));
                if let Some(peer) = e.peer {
                    buf.push_str(&format!(",\"peer\":{peer}"));
                }
                if e.corr != 0 {
                    buf.push_str(&format!(",\"corr\":{}", e.corr));
                }
                buf.push_str("}}");
                emit(&mut w, &mut buf, &mut first)?;

                // Flow arrow: recv completion binds back to the send post via
                // the correlation id. The id string is namespaced by run so
                // sweeps with several runs don't cross wires.
                if e.kind == TraceKind::Recv && e.corr != 0 {
                    buf.push_str(&format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":\"r{pid}.{corr}\",\"pid\":{pid},\
                         \"tid\":{rank},\"ts\":{ts},\"name\":\"msg\",\"cat\":\"msg\"}}",
                        corr = e.corr,
                        rank = e.rank,
                        ts = us(e.t_end),
                    ));
                    emit(&mut w, &mut buf, &mut first)?;
                }
                if matches!(e.kind, TraceKind::Send | TraceKind::Isend) && e.corr != 0 {
                    buf.push_str(&format!(
                        "{{\"ph\":\"s\",\"id\":\"r{pid}.{corr}\",\"pid\":{pid},\"tid\":{rank},\
                         \"ts\":{ts},\"name\":\"msg\",\"cat\":\"msg\"}}",
                        corr = e.corr,
                        rank = e.rank,
                        ts = us(e.t_end),
                    ));
                    emit(&mut w, &mut buf, &mut first)?;
                }
            }
        }
    }
    w.write_all(b"\n]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcomm::{MachineModel, Runner};

    #[test]
    fn x_event_count_matches_trace_record_count() {
        let out = Runner::default().traced(true).run(4, MachineModel::juropa_like(), |comm| {
            let peer = comm.size() - 1 - comm.rank();
            let r = comm.irecv::<u8>(peer, 1);
            let s = comm.isend(peer, 1, vec![0u8; 128]);
            comm.waitall(vec![r, s]);
            comm.barrier();
        });
        let records: usize = out.traces.iter().map(|t| t.events.len()).sum();
        let mut buf = Vec::new();
        write_perfetto(&mut buf, &[("test run", &out.traces)]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let x_events = text.matches("\"ph\":\"X\"").count();
        assert_eq!(x_events, records);
        // Every matched message produced a flow pair.
        assert_eq!(text.matches("\"ph\":\"s\"").count(), text.matches("\"ph\":\"f\"").count());
        assert!(text.matches("\"ph\":\"s\"").count() >= 4, "one flow start per isend");
    }

    #[test]
    fn sparse_exchange_messages_get_flow_arrows() {
        // Ranks 0 and 2 send to their right neighbours; nobody else sends,
        // and no empty partner becomes a message or an arrow.
        let out = Runner::default().traced(true).run(6, MachineModel::juqueen_like(), |comm| {
            let (me, p) = (comm.rank(), comm.size());
            let ring = [(me + 1) % p, (me + p - 1) % p];
            let sends =
                if me == 0 || me == 2 { vec![(ring[0], vec![me as u8; 32])] } else { vec![] };
            comm.sparse_exchange(&ring, sends)
        });
        let mut buf = Vec::new();
        write_perfetto(&mut buf, &[("sparse", &out.traces)]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"f\"").count(), 2);
        assert_eq!(text.matches("\"name\":\"sparse_exchange\"").count(), 6);
    }

    #[test]
    fn escapes_quotes_in_labels() {
        let mut buf = Vec::new();
        write_perfetto(&mut buf, &[("a \"quoted\" label", &[])]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("a \\\"quoted\\\" label"));
    }
}
