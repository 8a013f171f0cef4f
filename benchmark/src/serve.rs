//! The three served workloads: an in-process `ccam_server::Server` on
//! loopback, driven through `ccam_server::client::Client`.
//!
//! `serve_hot` and `serve_scale` alternate rounds of reads and rounds of
//! writes over one connection (closed loop: the next request leaves when
//! the previous answer is back). `serve_mixed_rw` runs a closed-loop
//! reader connection beside a writer connection that sends on a fixed
//! schedule (open loop: latency counts from the moment a write was due).

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccam_core::AccessMethod;
use ccam_graph::{Network, NodeId};
use ccam_server::client::Client;
use ccam_server::protocol::{Request, Response};
use ccam_storage::{IoSnapshot, IoStats, WalInfo};

use crate::check::{read_matches, status_ok, Tally};
use crate::layers;
use crate::ops::{Phase, ServeOps, Upsert};
use crate::report::{Metrics, Outcome};
use crate::rounds::{record_counts, record_timings, run_rounds, FixedReads, FixedWrites, Round};
use crate::setup::{self, Cell, Ctx, DbDir, Instance, Res, Served};
use crate::spec::{PoolSpec, Spec, MIN_ROUNDS, VALIDATE_EVERY};
use crate::trace::Tracer;
use crate::RunArgs;

/// The I/O counters of every snapshot view that served reads. A commit
/// replaces the served view (and its counters) with a fresh one, so the
/// counters of each are kept by handle and summed. Holding the counter
/// handle does not pin the view.
#[derive(Default)]
pub(crate) struct ViewCounters {
    seen: Vec<Arc<IoStats>>,
}

impl ViewCounters {
    /// Notes the view the cell serves right now, if it is a new one.
    fn observe(&mut self, cell: &Cell) -> Res<()> {
        let stats = cell.read().ctx("pin snapshot")?.stats();
        if !self.seen.last().is_some_and(|s| Arc::ptr_eq(s, &stats)) {
            self.seen.push(stats);
        }
        Ok(())
    }

    /// Reads, hits and evictions summed over every view seen.
    pub(crate) fn total(&self) -> IoSnapshot {
        self.seen.iter().fold(IoSnapshot::default(), |mut acc, s| {
            let v = s.snapshot();
            acc.physical_reads += v.physical_reads;
            acc.buffer_hits += v.buffer_hits;
            acc.evictions += v.evictions;
            acc
        })
    }
}

/// Acknowledged writes: the payload each rewritten node must hold after
/// a restart.
type Acked = BTreeMap<NodeId, Vec<u8>>;

/// Everything the untraced rounds measured.
pub(crate) struct Measured {
    pub(crate) reads: Vec<Round>,
    pub(crate) writes: Vec<Round>,
    fixed_reads: FixedReads,
    fixed_writes: FixedWrites,
    /// Read requests answered in every round, the warm-up included.
    pub(crate) total_reads: u64,
    /// How late the open-loop writer sent each write, in ms (empty when
    /// the writes are closed-loop).
    pub(crate) late_ms: Vec<f64>,
}

/// One served run's state: the server, the model it is checked against
/// and the ledgers the phases write to.
pub(crate) struct Session<'a> {
    pub(crate) spec: &'a Spec,
    pub(crate) ops: ServeOps,
    pub(crate) served: Served,
    db_path: PathBuf,
    /// The reference model: the generated network with every
    /// acknowledged write applied.
    pub(crate) net: Network,
    acked: Acked,
    pub(crate) views: ViewCounters,
    pub(crate) tally: Tally,
    /// Frames the served view's pool is sized to before reads (`None` =
    /// the library default is left alone).
    frames: Option<usize>,
}

pub(crate) fn upsert_request(w: &Upsert) -> [Request; 1] {
    [Request::Upsert {
        id: w.id,
        payload: w.payload.clone(),
    }]
}

/// Sends `batches` closed-loop, checks every status, and keeps one batch
/// in [`VALIDATE_EVERY`] for the content check after the clock stops.
fn drive_reads<'b>(
    client: &mut Client,
    batches: &'b [Vec<Request>],
    tally: &mut Tally,
    keep: &mut Vec<(&'b [Request], Vec<Response>)>,
) -> Res<Round> {
    let mut round = Round {
        lat_us: Vec::with_capacity(batches.len()),
        ..Round::default()
    };
    let t0 = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let sent = Instant::now();
        let resps = client.call(batch).ctx("read batch")?;
        round.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
        if resps.len() != batch.len() {
            return Err(format!(
                "{} answers for {} requests",
                resps.len(),
                batch.len()
            ));
        }
        round.ops += batch.len() as u64;
        if i % VALIDATE_EVERY == 0 {
            keep.push((batch.as_slice(), resps));
        } else {
            for (req, resp) in batch.iter().zip(&resps) {
                tally.record(status_ok(req, resp));
            }
        }
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    Ok(round)
}

fn validate_kept(
    net: &Network,
    kept: &[(&[Request], Vec<Response>)],
    volatile: &HashSet<NodeId>,
    tally: &mut Tally,
) {
    for (batch, resps) in kept {
        for (req, resp) in batch.iter().zip(resps) {
            tally.record(read_matches(net, req, resp, volatile));
        }
    }
}

impl Session<'_> {
    pub(crate) fn cell(&self) -> &Cell {
        &self.served.cell
    }

    pub(crate) fn connect(&self) -> Res<Client> {
        Client::connect(self.served.handle.local_addr()).ctx("connect")
    }

    /// Sizes the pool of the view served right now. The server has no
    /// knob for this; the view's pool is public, and stays as set until
    /// the next commit replaces the view.
    pub(crate) fn size_pool(&self) -> Res<()> {
        if let Some(frames) = self.frames {
            let view = self.cell().read().ctx("pin snapshot")?;
            view.file().pool().set_capacity(frames).ctx("size pool")?;
        }
        Ok(())
    }

    pub(crate) fn wal_info(&self) -> Res<WalInfo> {
        self.cell()
            .with_writer(setup::wal_info)
            .ctx("writer access")?
    }

    pub(crate) fn writer_io(&self) -> Res<IoSnapshot> {
        Ok(self
            .cell()
            .io_stats()
            .ok_or("database has no I/O counters")?
            .snapshot())
    }

    fn fixed_writes(&self, wal_before: &WalInfo, upserts: u64) -> Res<FixedWrites> {
        self.cell()
            .with_writer(|db| setup::fixed_writes(db, wal_before, upserts))
            .ctx("writer access")?
    }

    /// Sends one upsert and books the answer: an acknowledged write goes
    /// into the model and the restart ledger.
    pub(crate) fn upsert(
        &mut self,
        client: &mut Client,
        w: &Upsert,
        req: &[Request; 1],
    ) -> Res<bool> {
        let resps = client.call(req).ctx("upsert")?;
        let ok = resps.len() == 1 && status_ok(&req[0], &resps[0]);
        self.tally.record(ok);
        if ok {
            self.acknowledge(w);
        }
        Ok(ok)
    }

    /// Applies an acknowledged write to the model and the ledger.
    pub(crate) fn acknowledge(&mut self, w: &Upsert) {
        if let Some(node) = self.net.node_mut(w.id) {
            node.payload.clone_from(&w.payload);
        }
        self.acked.insert(w.id, w.payload.clone());
    }

    /// `serve_hot`, `serve_scale`: one connection, closed loop. A round
    /// is a list of read batches and then a list of writes, timed apart;
    /// read and write rounds alternate, so both kinds of metric see the
    /// whole of the run and not one half of it each (the sandbox's speed
    /// changes every ten to thirty seconds). The writes of a round
    /// replace the served view, so each round's reads start on a freshly
    /// sized, cold pool.
    fn closed_loop_rounds(&mut self, budget_s: f64) -> Res<Measured> {
        let mut client = self.connect()?;
        let wal_before = self.wal_info()?;
        let nothing_volatile = HashSet::new();
        let mut fixed = None;
        let (mut total_reads, mut total_writes) = (0u64, 0u64);
        let rounds = run_rounds(budget_s, MIN_ROUNDS, |r| {
            let batches = self.ops.read_round(r, self.spec.reads_per_round);
            let writes = self
                .ops
                .write_round(Phase::Write, r, self.spec.writes_per_round);
            let reqs: Vec<[Request; 1]> = writes.iter().map(upsert_request).collect();
            self.size_pool()?;
            self.views.observe(&self.served.cell)?;

            let mut kept = Vec::new();
            let read_round = drive_reads(&mut client, &batches, &mut self.tally, &mut kept)?;
            validate_kept(&self.net, &kept, &nothing_volatile, &mut self.tally);
            total_reads += read_round.ops;

            let mut write_round = Round::default();
            let t0 = Instant::now();
            for (w, req) in writes.iter().zip(&reqs) {
                let sent = Instant::now();
                let ok = self.upsert(&mut client, w, req)?;
                write_round.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
                write_round.ops += u64::from(ok);
            }
            write_round.wall_s = t0.elapsed().as_secs_f64();
            total_writes += write_round.ops;

            if r == MIN_ROUNDS {
                fixed = Some((
                    FixedReads {
                        physical_reads: self.views.total().physical_reads,
                        ops: total_reads,
                    },
                    self.fixed_writes(&wal_before, total_writes)?,
                ));
            }
            Ok((read_round, write_round))
        })?;
        let (fixed_reads, fixed_writes) = fixed.ok_or("run ended before its fixed rounds")?;
        let (reads, writes) = rounds.into_iter().unzip();
        Ok(Measured {
            reads,
            writes,
            fixed_reads,
            fixed_writes,
            total_reads,
            late_ms: Vec::new(),
        })
    }

    /// One reader connection closed-loop beside one writer connection on
    /// a fixed schedule. A round lasts `writes_per_round / rate` seconds;
    /// the reader laps its pre-generated batches until the writer's
    /// schedule is done. Every commit replaces the served view with one
    /// whose pool has the library's default size, so the writer sizes
    /// the new view's pool as soon as its write is acknowledged.
    fn mixed_phase(&mut self, budget_s: f64) -> Res<Measured> {
        let rate = self
            .spec
            .write_rate
            .ok_or("mixed workload needs a write rate")?;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let mut reader = self.connect()?;
        let mut writer = self.connect()?;
        let wal_before = self.wal_info()?;
        let mut volatile: HashSet<NodeId> = HashSet::new();
        let mut fixed = None;
        let (mut total_reads, mut total_writes) = (0u64, 0u64);
        let mut late_ms = Vec::new();
        self.views.observe(&self.served.cell)?;
        let rounds = run_rounds(budget_s, MIN_ROUNDS, |r| {
            let batches = self.ops.read_round(r, self.spec.reads_per_round);
            let writes = self
                .ops
                .write_round(Phase::Write, r, self.spec.writes_per_round);
            let reqs: Vec<[Request; 1]> = writes.iter().map(upsert_request).collect();
            volatile.extend(writes.iter().map(|w| w.id));
            let done = AtomicBool::new(false);
            let mut write_round = Round::default();
            let mut read_tally = Tally::default();
            let mut kept = Vec::new();
            let read_round = std::thread::scope(|s| -> Res<Round> {
                let reader_thread = s.spawn(|| -> Res<Round> {
                    let mut round = Round::default();
                    let t0 = Instant::now();
                    // Lap after lap over the same batches until the
                    // writer's schedule ends; the first lap's samples are
                    // the ones compared with the model.
                    while !done.load(Ordering::Acquire) {
                        let mut lap_kept = Vec::new();
                        for chunk in batches.chunks(VALIDATE_EVERY) {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                            let part =
                                drive_reads(&mut reader, chunk, &mut read_tally, &mut lap_kept)?;
                            round.ops += part.ops;
                            round.lat_us.extend(part.lat_us);
                        }
                        if kept.is_empty() {
                            kept = lap_kept;
                        } else {
                            for (batch, resps) in &lap_kept {
                                for (req, resp) in batch.iter().zip(resps) {
                                    read_tally.record(status_ok(req, resp));
                                }
                            }
                        }
                    }
                    round.wall_s = t0.elapsed().as_secs_f64();
                    Ok(round)
                });
                let t0 = Instant::now();
                let written = (|| -> Res<()> {
                    for (k, (w, req)) in writes.iter().zip(&reqs).enumerate() {
                        let due = t0 + interval * k as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        let ok = self.upsert(&mut writer, w, req)?;
                        write_round.lat_us.push(due.elapsed().as_secs_f64() * 1e6);
                        write_round.ops += u64::from(ok);
                        self.size_pool()?;
                        self.views.observe(&self.served.cell)?;
                    }
                    Ok(())
                })();
                write_round.wall_s = t0.elapsed().as_secs_f64();
                done.store(true, Ordering::Release);
                let read = reader_thread
                    .join()
                    .map_err(|_| "reader thread panicked".to_string())?;
                written?;
                read
            })?;
            self.tally.add(read_tally);
            validate_kept(&self.net, &kept, &volatile, &mut self.tally);
            total_reads += read_round.ops;
            total_writes += write_round.ops;
            if r == MIN_ROUNDS {
                fixed = Some((
                    FixedReads {
                        physical_reads: self.views.total().physical_reads,
                        ops: total_reads,
                    },
                    self.fixed_writes(&wal_before, total_writes)?,
                ));
            }
            Ok((read_round, write_round))
        })?;
        let (fixed_reads, fixed_writes) =
            fixed.ok_or("mixed phase ended before its fixed rounds")?;
        let (reads, writes) = rounds.into_iter().unzip();
        Ok(Measured {
            reads,
            writes,
            fixed_reads,
            fixed_writes,
            total_reads,
            late_ms,
        })
    }

    /// Runs the workload's untraced rounds within `seconds`.
    fn measure(&mut self, seconds: f64) -> Res<Measured> {
        if self.spec.write_rate.is_some() {
            self.mixed_phase(seconds)
        } else {
            self.closed_loop_rounds(seconds)
        }
    }

    /// Shuts the server down, drops every handle, reopens the files with
    /// log recovery and re-reads every acknowledged write.
    fn verify_after_restart(self) -> Res<Tally> {
        let Session {
            spec,
            served,
            db_path,
            acked,
            mut tally,
            ..
        } = self;
        drop(served.stop()?);
        let (db, _report) = setup::open(spec, &db_path)?;
        for (id, payload) in &acked {
            let readable = db
                .find(*id)
                .ctx("re-read acknowledged write")?
                .is_some_and(|rec| &rec.payload == payload);
            tally.record(readable);
        }
        Ok(tally)
    }
}

/// Writes a traced run's spans under `out_dir` and notes where.
pub(crate) fn write_trace(
    tracer: &Tracer,
    args: &RunArgs,
    spec: &Spec,
    out: &mut Outcome,
) -> Res<()> {
    let path = args
        .out_dir
        .join(format!("trace-{}.json", spec.workload.name()));
    tracer
        .write_json(&path, spec.workload.name())
        .ctx("write trace")?;
    out.note("trace_file", path.display());
    out.note("spans", tracer.len());
    Ok(())
}

/// Runs a served workload end to end.
pub fn run(spec: &Spec, args: &RunArgs) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let dir = DbDir::create(&args.out_dir, spec.workload.name())?;
    let (net, instance, setups) =
        setup::repeated_set_up(spec, args.traced, &dir.db_path(), &mut tracer)?;
    let Instance::Served(served) = instance else {
        return Err("served workload was set up without a server".into());
    };
    let nodes = net.len();
    let pages = served
        .cell
        .with_writer(|am| am.file().num_pages())
        .ctx("writer access")?;
    let frames = match spec.pool {
        // Twice the pages there are now: the writes split pages, and the
        // pool must go on holding every one of them.
        PoolSpec::AllPages => Some(pages.max(1) * 2),
        PoolSpec::Fraction(n) => Some((pages / n).max(1)),
        PoolSpec::LibraryDefault => None,
    };
    let space_bytes = served
        .cell
        .with_writer(|db| setup::space_bytes(db, &dir.db_path()))
        .ctx("writer access")??;
    out.note("nodes", nodes);
    out.note("data_pages", pages);
    out.note(
        "pool_frames",
        frames.map_or("library default".to_string(), |f| f.to_string()),
    );
    out.note("workers", spec.workers);
    out.note("batch", spec.batch);
    out.note(
        "loop",
        if spec.write_rate.is_some() {
            "reads closed, writes open"
        } else {
            "closed"
        },
    );
    out.note_storage(&args.out_dir);

    let mut session = Session {
        spec,
        ops: ServeOps::new(&net, spec, args.seed),
        served,
        db_path: dir.db_path(),
        net,
        acked: Acked::new(),
        views: ViewCounters::default(),
        tally: Tally::default(),
        frames,
    };
    session.size_pool()?;
    let mut placement = Metrics::default();
    if args.traced {
        let view = session.cell().read().ctx("pin snapshot")?;
        layers::probe_placement(view.file(), session.ops.walks().iter(), &mut placement)?;
    }
    let measured = session.measure(args.untraced_seconds())?;
    out.note("read_rounds", measured.reads.len());
    out.note("write_rounds", measured.writes.len());
    if args.traced {
        out.per_layer = crate::serve_trace::traced_layers(
            &mut session,
            &measured,
            &setups,
            &mut tracer,
            placement,
        )?;
        write_trace(&tracer, args, spec, &mut out)?;
    }
    record_timings(&mut out, &setups, &measured.reads, &measured.writes);
    record_counts(
        &mut out,
        measured.fixed_reads,
        measured.fixed_writes,
        space_bytes,
        nodes,
    );
    out.tally = session.verify_after_restart()?;
    out.end_to_end
        .set("success_ratio", out.tally.success_ratio());
    Ok(out)
}
