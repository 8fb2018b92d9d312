//! Load drivers: a pipelined closed loop and a fixed-schedule open
//! loop, both over the real `hpm_server::Client`.
//!
//! Closed loop: the next frame is sent only when a slot in the window
//! frees, so a slower server receives less load; latency is send →
//! receive. Open loop: every op has a due time fixed before the run
//! and is sent then regardless of replies; latency is **due time** →
//! receive, so a stall is charged to every op it delays, and the
//! generator's own lateness is reported beside the results.

use crate::ops::{Kind, Op};
use hpm_server::proto::{decode_response, read_frame, DEFAULT_MAX_FRAME};
use hpm_server::{Client, ClientError, ResponseBody};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// When one op was sent and answered, phase-relative nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// The op's kind.
    pub kind: Kind,
    /// Reports or queries the op carried.
    pub units: u64,
    /// When the op was due (equals `sent_ns` in a closed loop).
    pub due_ns: u64,
    /// When the client began sending it.
    pub sent_ns: u64,
    /// When its reply had been received and decoded.
    pub done_ns: u64,
}

impl Timed {
    /// Latency as the user sees it: from when the op was due.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// Unwraps the protocol-level refusals a reply can carry.
fn accept(body: ResponseBody) -> Result<ResponseBody, ClientError> {
    match body {
        ResponseBody::Malformed(why) => Err(ClientError::Malformed(why)),
        ResponseBody::Oversized { encoded, limit } => {
            Err(ClientError::ResponseTooLarge { encoded, limit })
        }
        other => Ok(other),
    }
}

/// Sends `ops` in order keeping up to `window` in flight, and hands
/// every reply to `on_reply(index, reply)` once its receive time is
/// recorded. Timings come back in op order. A transport or protocol
/// error ends the phase.
pub fn closed_loop(
    client: &mut Client,
    ops: &[Op],
    window: usize,
    mut on_reply: impl FnMut(usize, ResponseBody),
) -> Result<Vec<Timed>, ClientError> {
    assert!(window >= 1, "a closed loop needs a window of at least 1");
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut timings: Vec<Timed> = Vec::with_capacity(ops.len());
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::with_capacity(window);
    let mut drain = |inflight: &mut VecDeque<(usize, u64)>,
                     timings: &mut Vec<Timed>,
                     client: &mut Client|
     -> Result<(), ClientError> {
        let (index, sent) = inflight.pop_front().expect("drain with frames in flight");
        let resp = client.recv()?;
        timings[index].done_ns = now();
        if resp.correlation != sent {
            return Err(ClientError::CorrelationMismatch {
                sent,
                got: resp.correlation,
            });
        }
        on_reply(index, accept(resp.body)?);
        Ok(())
    };
    for (index, op) in ops.iter().enumerate() {
        if inflight.len() == window {
            drain(&mut inflight, &mut timings, client)?;
        }
        let request = op.request();
        let sent_ns = now();
        let correlation = client.send(request)?;
        timings.push(Timed {
            kind: op.kind(),
            units: op.units(),
            due_ns: sent_ns,
            sent_ns,
            done_ns: 0,
        });
        inflight.push_back((index, correlation));
    }
    while !inflight.is_empty() {
        drain(&mut inflight, &mut timings, client)?;
    }
    Ok(timings)
}

/// The time source an open loop paces itself by. Injected so the
/// scheduler can be tested against a stall without waiting for one.
pub trait Clock {
    /// Nanoseconds since the phase began.
    fn now_ns(&self) -> u64;
    /// Blocks until [`now_ns`](Self::now_ns) is at least `t`.
    fn sleep_until(&self, t: u64);
}

/// The wall clock: sleeps to just short of the due time, then spins
/// the remainder (the kernel may wake a sleeper ~50 µs late, which
/// would otherwise be charged to the system as latency).
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

/// How long before a due time the wall clock stops sleeping and spins.
const SPIN_NS: u64 = 150_000;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t: u64) {
        let now = self.now_ns();
        if t > now + SPIN_NS {
            std::thread::sleep(Duration::from_nanos(t - now - SPIN_NS));
        }
        while self.now_ns() < t {
            std::hint::spin_loop();
        }
    }
}

/// When the generator actually sent each op of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pacing {
    /// When each send began, in schedule order.
    pub sent_ns: Vec<u64>,
    /// Deepest backlog seen: ops already due but not yet sent when a
    /// send began (0 = the generator always kept up).
    pub backlog_max: usize,
}

/// Walks a schedule: waits for each op's due time, then calls
/// `send(index)`. An op whose due time has passed (because an earlier
/// send stalled) goes out immediately — the schedule is never shifted,
/// so the delay shows up as lateness and, through [`Timed::latency_ns`],
/// in the latency of every op it held up.
pub fn pace<E>(
    clock: &impl Clock,
    due_ns: &[u64],
    mut send: impl FnMut(usize) -> Result<(), E>,
) -> Result<Pacing, E> {
    let mut sent_ns = Vec::with_capacity(due_ns.len());
    let mut backlog_max = 0;
    for (index, &due) in due_ns.iter().enumerate() {
        clock.sleep_until(due);
        let began = clock.now_ns();
        let backlog = due_ns[index + 1..]
            .iter()
            .take_while(|&&d| d <= began)
            .count();
        backlog_max = backlog_max.max(backlog);
        sent_ns.push(began);
        send(index)?;
    }
    Ok(Pacing {
        sent_ns,
        backlog_max,
    })
}

/// What one open-loop connection measured.
#[derive(Debug)]
pub struct OpenLoopRun {
    /// One entry per op, in schedule order.
    pub timings: Vec<Timed>,
    /// Deepest generator backlog.
    pub backlog_max: usize,
}

/// Runs `ops` on one connection at the due times in `due_ns`
/// (phase-relative, ascending), all measured against `clock`. One
/// thread paces the sends; a second blocks on the socket so a reply is
/// timestamped when it arrives, not when the sender next looks.
/// `on_reply(index, reply)` runs on the receiving thread.
pub fn open_loop(
    client: &mut Client,
    clock: &(impl Clock + Sync),
    ops: &[Op],
    due_ns: &[u64],
    mut on_reply: impl FnMut(usize, ResponseBody) + Send,
) -> Result<OpenLoopRun, ClientError> {
    assert_eq!(ops.len(), due_ns.len(), "one due time per op");
    let mut reader: TcpStream = client.stream().try_clone()?;
    let expected = ops.len();
    let (pacing, done_ns) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || -> Result<Vec<u64>, ClientError> {
            let mut payload = Vec::new();
            let mut done = Vec::with_capacity(expected);
            for index in 0..expected {
                if !read_frame(&mut reader, &mut payload, DEFAULT_MAX_FRAME)? {
                    return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
                }
                let resp = decode_response(&payload)?;
                done.push(clock.now_ns());
                on_reply(index, accept(resp.body)?);
            }
            Ok(done)
        });
        let pacing = pace(clock, due_ns, |index| {
            client.send(ops[index].request()).map(|_| ())
        });
        if pacing.is_err() {
            // The receiver would wait for replies that will never be
            // requested; closing the socket ends its read.
            let _ = client.stream().shutdown(std::net::Shutdown::Both);
        }
        let done = receiver.join().expect("open-loop receiver panicked");
        (pacing, done)
    });
    let pacing = pacing?;
    let done_ns = done_ns?;
    let timings = ops
        .iter()
        .enumerate()
        .map(|(i, op)| Timed {
            kind: op.kind(),
            units: op.units(),
            due_ns: due_ns[i],
            sent_ns: pacing.sent_ns[i],
            done_ns: done_ns[i],
        })
        .collect();
    Ok(OpenLoopRun {
        timings,
        backlog_max: pacing.backlog_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the due
    /// time, and a send can "stall" by advancing it.
    struct FakeClock {
        now: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until(&self, t: u64) {
            if t > self.now.get() {
                self.now.set(t);
            }
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn on_time_generator_sends_at_due_times_with_no_backlog() {
        let clock = FakeClock { now: Cell::new(0) };
        let due: Vec<u64> = (0..5).map(|i| i * 10 * MS).collect();
        let pacing = pace(&clock, &due, |_| {
            clock.now.set(clock.now.get() + MS / 10); // a send costs 0.1 ms
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(pacing.sent_ns, due);
        assert_eq!(pacing.backlog_max, 0);
    }

    #[test]
    fn stall_is_charged_from_due_time_and_reported_as_lateness() {
        // Ops due every 10 ms; the send of op 1 blocks for 35 ms.
        let clock = FakeClock { now: Cell::new(0) };
        let due: Vec<u64> = (0..6).map(|i| i * 10 * MS).collect();
        let pacing = pace(&clock, &due, |i| {
            if i == 1 {
                clock.now.set(clock.now.get() + 35 * MS);
            }
            Ok::<(), ()>(())
        })
        .unwrap();
        // Op 1 went out on time; ops 2..4 were due at 20/30/40 ms but
        // could only go once the stall ended at 45 ms; op 5 is on time.
        assert_eq!(
            pacing.sent_ns,
            vec![0, 10 * MS, 45 * MS, 45 * MS, 45 * MS, 50 * MS]
        );
        // When op 2 finally went, ops 3 and 4 were already due too.
        assert_eq!(pacing.backlog_max, 2);
        // A reply that takes 1 ms from its send is charged from its due
        // time: op 2 waited 25 ms it never asked for.
        let timed = Timed {
            kind: Kind::Range,
            units: 1,
            due_ns: due[2],
            sent_ns: pacing.sent_ns[2],
            done_ns: pacing.sent_ns[2] + MS,
        };
        assert_eq!(timed.latency_ns(), 26 * MS);
        let lateness: Vec<u64> = pacing
            .sent_ns
            .iter()
            .zip(&due)
            .map(|(s, d)| s - d)
            .collect();
        assert_eq!(lateness, vec![0, 0, 25 * MS, 15 * MS, 5 * MS, 0]);
    }

    #[test]
    fn send_error_stops_the_schedule() {
        let clock = FakeClock { now: Cell::new(0) };
        let due = [0, MS, 2 * MS];
        let mut sent = 0;
        let out = pace(&clock, &due, |i| {
            sent += 1;
            if i == 1 {
                Err("broken pipe")
            } else {
                Ok(())
            }
        });
        assert_eq!(out, Err("broken pipe"));
        assert_eq!(sent, 2);
    }
}
