//! The threaded execution backend: packed bit-plane words sharded across a
//! persistent worker pool.
//!
//! [`ThreadedBackend`] is the third [`Executor`] over the micro-op ISA. It
//! keeps the packed backend's representation — wide bit-plane words behind
//! the [`Word`] seam, a recycling word arena, a fingerprint-keyed bus-plan
//! cache — and attacks per-step wall-clock with host parallelism:
//!
//! * **Persistent pool** — `threads - 1` workers are spawned once per
//!   backend and barrier-synchronized per micro-op through a condvar
//!   rendezvous; no instruction ever pays thread-spawn cost. The issuing
//!   thread itself computes shard 0, so `threads == 1` degenerates to a
//!   pool-free packed execution.
//! * **Shard views** — each micro-op's word rows (or plane elements, for
//!   broadcast gathers) are split into `threads` contiguous shards; every
//!   shard runs the *same* word kernels as [`PackedBackend`]
//!   (`crate::packed`'s `pack_range`, `vote_range`, …), over its range.
//!   `shard_ranges` is a pure function of the word count — itself a pure
//!   function of array size and word width — so the decomposition, and with
//!   it bit-identity, holds at every `(threads, width)` combination.
//! * **Fixed-order combination** — shard partials are concatenated (or, for
//!   the wired-OR accumulator, OR-merged) in ascending shard order on the
//!   issuing thread, so results are deterministic and bit-identical to
//!   [`ScalarBackend`](crate::ScalarBackend) regardless of thread count.
//!
//! The issue side — step accounting, fault routing, step budgets and
//! cancellation — lives in [`Machine`](crate::Machine) and is untouched:
//! the cooperative brake fires between micro-ops on the issuing thread, so
//! budget exhaustion and cancellation land on the same controller step for
//! every thread count. The differential suites in
//! `tests/backend_threaded.rs` and `tests/backend_width.rs` assert all of
//! this bit-for-bit.
//!
//! Masks and planes cross the shard boundary as `Arc` handles (see
//! [`SharedMask`] and the copy-on-write `Plane`), never as borrowed
//! slices, which keeps the pool free of `unsafe` lifetime games.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::error::MachineError;
use crate::geometry::{Dim, Direction};
use crate::isa::{ExecStats, Executor};
use crate::packed::{
    bit_plane_range, bus_or_deposit_keys, bus_or_deposit_segs, bus_or_fill_segs, bus_or_read_keys,
    compute_plan, fingerprint, knockout_range, pack_range, vote_range, words_for, BusPlan,
    WordPool, PLAN_CACHE_CAP,
};
use crate::plane::Plane;
use crate::word::{Word, W64};

/// Work items (source elements walked) below which a micro-op runs all its
/// shards inline on the issuing thread: the rendezvous costs more than the
/// kernel. The shard decomposition and combination order are identical
/// either way, so the choice never affects results.
const MIN_PARALLEL_ITEMS: usize = 2048;

/// Locks a mutex, neutralizing poisoning: pool state is plain data that
/// stays valid wherever a panic interrupted an update, and the stress
/// suite requires that a panicking shard never wedges later solves.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A shard's type-erased output, shipped back to the issuing thread.
type ShardOut = Box<dyn Any + Send>;
/// One micro-op's shard job: maps a shard index to that shard's partial.
type ShardJob = Arc<dyn Fn(usize) -> ShardOut + Send + Sync>;

/// The job slot workers watch: a published epoch plus the job to run.
struct JobSlot {
    epoch: u64,
    job: Option<ShardJob>,
}

/// Where workers post their shard results for the current epoch.
struct DoneBoard {
    epoch: u64,
    remaining: usize,
    results: Vec<Option<std::thread::Result<ShardOut>>>,
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    start: Condvar,
    board: Mutex<DoneBoard>,
    finished: Condvar,
    shutdown: AtomicBool,
}

/// The persistent worker pool: spawned once, joined on drop.
struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Total shard count (worker count + 1 for the issuing thread).
    shards: usize,
}

impl WorkerPool {
    fn new(threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be non-zero");
        let workers = threads - 1;
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot {
                epoch: 0,
                job: None,
            }),
            start: Condvar::new(),
            board: Mutex::new(DoneBoard {
                epoch: 0,
                remaining: 0,
                results: (0..workers).map(|_| None).collect(),
            }),
            finished: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppa-shard-{}", id + 1))
                    .spawn(move || worker_loop(shared, id))
                    .expect("spawn shard worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            shards: workers + 1,
        }
    }

    /// Runs `job(shard)` for every shard in `0..self.shards`, shard 0 on
    /// the calling thread, and returns the outputs in ascending shard
    /// order. With `parallel == false` (or no workers) every shard runs
    /// inline in the same order — same decomposition, same combination.
    fn run(&self, parallel: bool, job: &ShardJob) -> Vec<ShardOut> {
        if !parallel || self.handles.is_empty() {
            return (0..self.shards).map(|s| job(s)).collect();
        }
        let workers = self.handles.len();
        let epoch = lock(&self.shared.slot).epoch + 1;
        {
            let mut board = lock(&self.shared.board);
            board.epoch = epoch;
            board.remaining = workers;
            for r in board.results.iter_mut() {
                *r = None;
            }
        }
        {
            let mut slot = lock(&self.shared.slot);
            slot.epoch = epoch;
            slot.job = Some(Arc::clone(job));
            self.shared.start.notify_all();
        }
        let first = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_outs: Vec<_> = {
            let mut board = lock(&self.shared.board);
            while board.remaining > 0 {
                board = self
                    .shared
                    .finished
                    .wait(board)
                    .unwrap_or_else(|e| e.into_inner());
            }
            board
                .results
                .iter_mut()
                .map(|r| r.take().expect("every worker posts its shard"))
                .collect()
        };
        // Drop the published Arc so shard inputs are released promptly.
        lock(&self.shared.slot).job = None;
        let mut outs = Vec::with_capacity(self.shards);
        // A panicking shard propagates deterministically: shard 0 first,
        // then workers in shard order (all results are already in).
        match first {
            Ok(v) => outs.push(v),
            Err(payload) => resume_unwind(payload),
        }
        for r in worker_outs {
            match r {
                Ok(v) => outs.push(v),
                Err(payload) => resume_unwind(payload),
            }
        }
        outs
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // Flag + notify under the slot lock so no worker can check the
            // flag and park between the two.
            let _slot = lock(&self.shared.slot);
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, id: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if slot.epoch != seen {
                    seen = slot.epoch;
                    break Arc::clone(slot.job.as_ref().expect("published epoch carries a job"));
                }
                slot = shared.start.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        // This worker owns shard `id + 1`; shard 0 runs on the issuer.
        let out = catch_unwind(AssertUnwindSafe(|| job(id + 1)));
        drop(job);
        let mut board = lock(&shared.board);
        if board.epoch == seen {
            board.results[id] = Some(out);
            board.remaining -= 1;
            if board.remaining == 0 {
                shared.finished.notify_all();
            }
        }
    }
}

/// Splits `len` items into `shards` contiguous ranges (the trailing ones
/// may be empty). The decomposition is a pure function of `(len, shards)`
/// — for word shards, `len` is itself the pure width-dependent
/// [`words_for`] count — which the determinism argument leans on.
fn shard_ranges(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let chunk = len.div_ceil(shards.max(1)).max(1);
    (0..shards)
        .map(|s| ((s * chunk).min(len), ((s + 1) * chunk).min(len)))
        .collect()
}

/// A boolean mask plane packed `W::BITS` PEs per machine word, held behind
/// an `Arc` so shard workers can read it without copying.
///
/// Masks are immutable once produced (every mask micro-op builds a fresh
/// one), so clones share the buffer. When the last handle drops, the
/// buffer returns to the backend's word arena.
pub struct SharedMask<W: Word = W64> {
    dim: Dim,
    words: Option<Arc<Vec<W>>>,
    arena: Arc<Mutex<WordPool<W>>>,
}

impl<W: Word> SharedMask<W> {
    fn words(&self) -> &Arc<Vec<W>> {
        self.words.as_ref().expect("mask words live until drop")
    }

    /// Whether the bit for flat PE index `i` is set.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        self.words()[i / W::BITS].bit(i % W::BITS)
    }

    /// Number of set PEs (a popcount per word).
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// The mask geometry.
    pub fn dim(&self) -> Dim {
        self.dim
    }
}

impl<W: Word> Drop for SharedMask<W> {
    fn drop(&mut self) {
        if let Some(arc) = self.words.take() {
            if let Ok(buf) = Arc::try_unwrap(arc) {
                lock(&self.arena).put(buf);
            }
        }
    }
}

impl<W: Word> Clone for SharedMask<W> {
    fn clone(&self) -> Self {
        SharedMask {
            dim: self.dim,
            words: Some(Arc::clone(self.words())),
            arena: Arc::clone(&self.arena),
        }
    }
}

impl<W: Word> PartialEq for SharedMask<W> {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && *self.words() == *other.words()
    }
}

impl<W: Word> std::fmt::Debug for SharedMask<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMask")
            .field("dim", &self.dim)
            .field("word_bits", &W::BITS)
            .field("set", &self.count())
            .finish()
    }
}

/// A cached cluster plan, `Arc`-shared so gather shards can read the key
/// table directly.
#[derive(Debug, Clone)]
struct PlanEntry<W> {
    dir: Direction,
    fp: u64,
    words: Vec<W>,
    plan: Arc<BusPlan>,
}

/// The threaded bit-plane execution backend (see module docs), generic
/// over the machine word `W`.
pub struct ThreadedBackend<W: Word = W64> {
    pool: Arc<WorkerPool>,
    arena: Arc<Mutex<WordPool<W>>>,
    plans: Vec<PlanEntry<W>>,
    plan_hits: u64,
    plan_misses: u64,
    min_parallel: usize,
    scratch: Vec<W>,
}

impl<W: Word> ThreadedBackend<W> {
    /// A fresh backend whose pool spans `threads` shards (`threads - 1`
    /// spawned workers plus the issuing thread).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        ThreadedBackend::with_min_parallel(threads, MIN_PARALLEL_ITEMS)
    }

    /// [`ThreadedBackend::new`] with an explicit inline/parallel cutoff in
    /// work items; `0` forces every micro-op through the rendezvous (the
    /// conformance suites use this to exercise the pool at small `n`).
    pub fn with_min_parallel(threads: usize, min_parallel: usize) -> Self {
        ThreadedBackend {
            pool: Arc::new(WorkerPool::new(threads)),
            arena: Arc::new(Mutex::new(WordPool::default())),
            plans: Vec::new(),
            plan_hits: 0,
            plan_misses: 0,
            min_parallel,
            scratch: Vec::new(),
        }
    }

    /// Total shard count (spawned workers + the issuing thread).
    pub fn threads(&self) -> usize {
        self.pool.shards
    }

    fn parallel_for(&self, items: usize) -> bool {
        items >= self.min_parallel
    }

    /// Wraps freshly computed words as a mask.
    fn mask_of(&self, dim: Dim, words: Vec<W>) -> SharedMask<W> {
        SharedMask {
            dim,
            words: Some(Arc::new(words)),
            arena: Arc::clone(&self.arena),
        }
    }

    fn alloc_words(&self, dim: Dim) -> Vec<W> {
        lock(&self.arena).get(words_for::<W>(dim))
    }

    /// Runs a word-producing shard job over the word rows of `dim` and
    /// assembles the partials, in shard order, into one arena buffer.
    ///
    /// `make` receives the shard's word range and builds its partial; it
    /// must be `'static` (capture `Arc` handles, not borrows).
    fn run_word_shards(
        &mut self,
        dim: Dim,
        items: usize,
        make: impl Fn(usize, usize) -> Vec<W> + Send + Sync + 'static,
    ) -> SharedMask<W> {
        let nwords = words_for::<W>(dim);
        let ranges = Arc::new(shard_ranges(nwords, self.pool.shards));
        let job_ranges = Arc::clone(&ranges);
        let job: ShardJob = Arc::new(move |s| {
            let (w0, w1) = job_ranges[s];
            Box::new(make(w0, w1)) as ShardOut
        });
        let outs = self.pool.run(self.parallel_for(items), &job);
        let mut words = self.alloc_words(dim);
        for (s, out) in outs.into_iter().enumerate() {
            let part = *out.downcast::<Vec<W>>().expect("word shard output");
            let (w0, w1) = ranges[s];
            words[w0..w1].copy_from_slice(&part);
        }
        self.mask_of(dim, words)
    }

    /// The cached cluster plan for `open` given as packed words.
    fn plan_for_words(&mut self, dim: Dim, dir: Direction, words: &[W]) -> Arc<BusPlan> {
        let fp = fingerprint(dir, words);
        if let Some(pos) = self
            .plans
            .iter()
            .position(|e| e.dir == dir && e.fp == fp && e.words == *words)
        {
            self.plan_hits += 1;
            let entry = self.plans.remove(pos);
            let plan = Arc::clone(&entry.plan);
            self.plans.push(entry); // LRU: most recent at the back
            return plan;
        }
        self.plan_misses += 1;
        let plan = Arc::new(compute_plan(dim, dir, words));
        if self.plans.len() >= PLAN_CACHE_CAP {
            self.plans.remove(0);
        }
        self.plans.push(PlanEntry {
            dir,
            fp,
            words: words.to_vec(),
            plan: Arc::clone(&plan),
        });
        plan
    }

    /// The cached cluster plan for `open` given as a plane.
    fn plan_for_plane(&mut self, dim: Dim, dir: Direction, open: &Plane<bool>) -> Arc<BusPlan> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.resize(words_for::<W>(dim), W::zero());
        pack_range(open.as_slice(), 0, &mut scratch);
        let plan = self.plan_for_words(dim, dir, &scratch);
        self.scratch = scratch;
        plan
    }

    /// The sharded cluster-head gather behind both broadcast forms.
    fn gather<T: Copy + Send + Sync + 'static>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        plan: &Arc<BusPlan>,
    ) -> Plane<T> {
        let len = dim.len();
        let ranges = Arc::new(shard_ranges(len, self.pool.shards));
        let s = src.shared();
        let plan = Arc::clone(plan);
        let job_ranges = Arc::clone(&ranges);
        let job: ShardJob = Arc::new(move |shard| {
            let (r0, r1) = job_ranges[shard];
            let part: Vec<T> = (r0..r1).map(|i| s[plan.keys[i] as usize]).collect();
            Box::new(part) as ShardOut
        });
        let outs = self.pool.run(self.parallel_for(len), &job);
        let mut data: Vec<T> = Vec::with_capacity(len);
        for out in outs {
            data.extend(*out.downcast::<Vec<T>>().expect("gather shard output"));
        }
        Plane::from_vec(dim, data)
    }

    fn check_dim<T>(dim: Dim, p: &Plane<T>) -> Result<(), MachineError> {
        if p.dim() == dim {
            Ok(())
        } else {
            Err(MachineError::DimMismatch {
                expected: dim,
                found: p.dim(),
            })
        }
    }
}

impl<W: Word> Clone for ThreadedBackend<W> {
    /// Clones share the worker pool and the word arena (as packed clones
    /// share their arena); the plan cache is copied.
    fn clone(&self) -> Self {
        ThreadedBackend {
            pool: Arc::clone(&self.pool),
            arena: Arc::clone(&self.arena),
            plans: self.plans.clone(),
            plan_hits: self.plan_hits,
            plan_misses: self.plan_misses,
            min_parallel: self.min_parallel,
            scratch: Vec::new(),
        }
    }
}

impl<W: Word> std::fmt::Debug for ThreadedBackend<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedBackend")
            .field("threads", &self.pool.shards)
            .field("word_bits", &W::BITS)
            .field("plans", &self.plans.len())
            .field("min_parallel", &self.min_parallel)
            .finish()
    }
}

impl<W: Word> Executor for ThreadedBackend<W> {
    type Mask = SharedMask<W>;

    const NAME: &'static str = W::THREADED_NAME;

    fn mask_from_plane(&mut self, dim: Dim, plane: &Plane<bool>) -> SharedMask<W> {
        let src = plane.shared();
        self.run_word_shards(dim, dim.len(), move |w0, w1| {
            let mut out = vec![W::zero(); w1 - w0];
            pack_range(&src, w0, &mut out);
            out
        })
    }

    fn mask_to_plane(&self, dim: Dim, mask: &SharedMask<W>) -> Plane<bool> {
        Plane::from_vec(dim, (0..dim.len()).map(|i| mask.bit(i)).collect())
    }

    fn mask_filled(&mut self, dim: Dim, value: bool) -> SharedMask<W> {
        let mut words = self.alloc_words(dim);
        if value {
            words.fill(W::ones());
            let rem = dim.len() % W::BITS;
            if rem != 0 {
                if let Some(last) = words.last_mut() {
                    *last &= W::low_mask(rem);
                }
            }
        }
        self.mask_of(dim, words)
    }

    fn mask_count(&self, _dim: Dim, mask: &SharedMask<W>) -> usize {
        mask.count()
    }

    fn bit_plane(&mut self, dim: Dim, src: &Plane<i64>, j: u32) -> SharedMask<W> {
        let s = src.shared();
        self.run_word_shards(dim, dim.len(), move |w0, w1| {
            let mut out = vec![W::zero(); w1 - w0];
            bit_plane_range(&s, j, w0, &mut out);
            out
        })
    }

    fn vote(
        &mut self,
        dim: Dim,
        enable: &SharedMask<W>,
        bit: &SharedMask<W>,
        keep_low: bool,
    ) -> SharedMask<W> {
        let (e, b) = (Arc::clone(enable.words()), Arc::clone(bit.words()));
        let items = words_for::<W>(dim);
        self.run_word_shards(dim, items, move |w0, w1| {
            let mut out = vec![W::zero(); w1 - w0];
            vote_range(&e, &b, keep_low, w0, &mut out);
            out
        })
    }

    fn knockout(
        &mut self,
        dim: Dim,
        enable: &SharedMask<W>,
        present: &SharedMask<W>,
        bit: &SharedMask<W>,
        keep_low: bool,
    ) -> SharedMask<W> {
        let (e, p, b) = (
            Arc::clone(enable.words()),
            Arc::clone(present.words()),
            Arc::clone(bit.words()),
        );
        let items = words_for::<W>(dim);
        self.run_word_shards(dim, items, move |w0, w1| {
            let mut out = vec![W::zero(); w1 - w0];
            knockout_range(&e, &p, &b, keep_low, w0, &mut out);
            out
        })
    }

    fn mask_bus_or(
        &mut self,
        dim: Dim,
        values: &SharedMask<W>,
        dir: Direction,
        open: &SharedMask<W>,
    ) -> Result<SharedMask<W>, MachineError> {
        let plan = self.plan_for_words(dim, dir, open.words());
        let nwords = words_for::<W>(dim);
        let vals = Arc::clone(values.words());
        let parallel = self.parallel_for(nwords);
        let shards = self.pool.shards;
        // Pass 1 — shard partial accumulators, OR-merged in shard order
        // (the wired OR is a bitwise OR, so the merge order is immaterial
        // to the bits and fixed for determinism's sake anyway).
        let mut acc = lock(&self.arena).get(nwords);
        if !plan.segs.is_empty() {
            let seg_ranges = Arc::new(shard_ranges(plan.segs.len(), shards));
            let p1 = Arc::clone(&plan);
            let v1 = Arc::clone(&vals);
            let r1 = Arc::clone(&seg_ranges);
            let job: ShardJob = Arc::new(move |s| {
                let (s0, s1) = r1[s];
                let mut part = vec![W::zero(); v1.len()];
                bus_or_deposit_segs(&v1, &p1.segs[s0..s1], &mut part);
                Box::new(part) as ShardOut
            });
            for out in self.pool.run(parallel, &job) {
                let part = *out.downcast::<Vec<W>>().expect("acc shard output");
                for (a, w) in acc.iter_mut().zip(part) {
                    *a |= w;
                }
            }
            // Pass 2 — shard partial outputs the same way: a segment may
            // share boundary words with its neighbours, so each shard
            // fills a zeroed buffer and the issuer ORs them in order.
            let p2 = Arc::clone(&plan);
            let a2 = Arc::new(std::mem::take(&mut acc));
            let a_job = Arc::clone(&a2);
            let r2 = Arc::clone(&seg_ranges);
            let job: ShardJob = Arc::new(move |s| {
                let (s0, s1) = r2[s];
                let mut part = vec![W::zero(); p2.keys.len().div_ceil(W::BITS)];
                bus_or_fill_segs(&a_job, &p2.segs[s0..s1], &mut part);
                Box::new(part) as ShardOut
            });
            let outs = self.pool.run(parallel, &job);
            drop(job);
            let mut words = self.alloc_words(dim);
            for out in outs {
                let part = *out.downcast::<Vec<W>>().expect("fill shard output");
                for (w, p) in words.iter_mut().zip(part) {
                    *w |= p;
                }
            }
            if let Ok(buf) = Arc::try_unwrap(a2) {
                lock(&self.arena).put(buf);
            }
            return Ok(self.mask_of(dim, words));
        }
        let word_ranges = Arc::new(shard_ranges(nwords, shards));
        let p1 = Arc::clone(&plan);
        let v1 = Arc::clone(&vals);
        let r1 = Arc::clone(&word_ranges);
        let job: ShardJob = Arc::new(move |s| {
            let (w0, w1) = r1[s];
            let mut part = vec![W::zero(); v1.len()];
            bus_or_deposit_keys(&v1, &p1.keys, w0, w1 - w0, &mut part);
            Box::new(part) as ShardOut
        });
        for out in self.pool.run(parallel, &job) {
            let part = *out.downcast::<Vec<W>>().expect("acc shard output");
            for (a, w) in acc.iter_mut().zip(part) {
                *a |= w;
            }
        }
        // Pass 2 — each output word depends only on `acc`, so shards write
        // disjoint ranges concatenated in shard order.
        let p2 = Arc::clone(&plan);
        let a2 = Arc::new(std::mem::take(&mut acc));
        let len = dim.len();
        let a_job = Arc::clone(&a2);
        let r2 = Arc::clone(&word_ranges);
        let job: ShardJob = Arc::new(move |s| {
            let (w0, w1) = r2[s];
            let mut part = vec![W::zero(); w1 - w0];
            bus_or_read_keys(&a_job, &p2.keys, len, w0, &mut part);
            Box::new(part) as ShardOut
        });
        let outs = self.pool.run(parallel, &job);
        drop(job);
        let mut words = self.alloc_words(dim);
        for (s, out) in outs.into_iter().enumerate() {
            let part = *out.downcast::<Vec<W>>().expect("read shard output");
            let (w0, w1) = word_ranges[s];
            words[w0..w1].copy_from_slice(&part);
        }
        if let Ok(buf) = Arc::try_unwrap(a2) {
            lock(&self.arena).put(buf);
        }
        Ok(self.mask_of(dim, words))
    }

    fn broadcast<T: Copy + Send + Sync + 'static>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<T>, MachineError> {
        Self::check_dim(dim, src)?;
        Self::check_dim(dim, open)?;
        let plan = self.plan_for_plane(dim, dir, open);
        if !plan.driverless.is_empty() {
            return Err(MachineError::BusFault {
                axis: dir.axis(),
                lines: plan.driverless.clone(),
            });
        }
        Ok(self.gather(dim, src, &plan))
    }

    fn broadcast_masked<T: Copy + Send + Sync + 'static>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &SharedMask<W>,
    ) -> Result<Plane<T>, MachineError> {
        Self::check_dim(dim, src)?;
        let plan = self.plan_for_words(dim, dir, open.words());
        if !plan.driverless.is_empty() {
            return Err(MachineError::BusFault {
                axis: dir.axis(),
                lines: plan.driverless.clone(),
            });
        }
        Ok(self.gather(dim, src, &plan))
    }

    fn bus_or(
        &mut self,
        dim: Dim,
        values: &Plane<bool>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<bool>, MachineError> {
        Self::check_dim(dim, values)?;
        Self::check_dim(dim, open)?;
        // The plane-form wired OR sits outside the packed scan loop (it
        // appears in setup code, not per-bit passes), so it reuses the
        // plan cache but runs its two passes on the issuing thread.
        let plan = self.plan_for_plane(dim, dir, open);
        let v = values.as_slice();
        let keys = &plan.keys;
        let mut acc = vec![false; dim.len()];
        for (i, &set) in v.iter().enumerate() {
            if set {
                acc[keys[i] as usize] = true;
            }
        }
        let data = (0..dim.len()).map(|i| acc[keys[i] as usize]).collect();
        Ok(Plane::from_vec(dim, data))
    }

    fn stats(&self) -> ExecStats {
        let arena = lock(&self.arena);
        ExecStats {
            plan_hits: self.plan_hits,
            plan_misses: self.plan_misses,
            arena_fresh: arena.fresh,
            arena_reused: arena.reused,
        }
    }

    fn reset_stats(&mut self) {
        self.plan_hits = 0;
        self.plan_misses = 0;
        let mut arena = lock(&self.arena);
        arena.fresh = 0;
        arena.reused = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ScalarBackend;
    use crate::word::W256;

    fn plane_of(dim: Dim, f: impl Fn(usize) -> bool) -> Plane<bool> {
        Plane::from_vec(dim, (0..dim.len()).map(f).collect())
    }

    /// A backend that dispatches every op through the pool, regardless of
    /// size — the unit tests must exercise the rendezvous, not the inline
    /// fallback.
    fn forced(threads: usize) -> ThreadedBackend {
        ThreadedBackend::with_min_parallel(threads, 0)
    }

    #[test]
    fn pack_roundtrip_across_thread_counts() {
        let dim = Dim::new(5, 13); // 65 PEs: crosses a word boundary
        let plane = plane_of(dim, |i| i % 3 == 0 || i == 64);
        for threads in [1, 2, 3, 8] {
            let mut be = forced(threads);
            let mask = be.mask_from_plane(dim, &plane);
            assert_eq!(mask.count(), plane.count_true(), "threads={threads}");
            assert_eq!(be.mask_to_plane(dim, &mask), plane, "threads={threads}");
        }
    }

    #[test]
    fn pack_roundtrip_across_thread_counts_w256() {
        // 300 PEs: two 256-bit words, the second only partially live, so
        // shard seams and the trailing trim both cross limb boundaries.
        let dim = Dim::new(15, 20);
        let plane = plane_of(dim, |i| i % 3 == 0 || i == 255 || i == 256);
        for threads in [1, 2, 3, 8] {
            let mut be = ThreadedBackend::<W256>::with_min_parallel(threads, 0);
            let mask = be.mask_from_plane(dim, &plane);
            assert_eq!(mask.count(), plane.count_true(), "threads={threads}");
            assert_eq!(be.mask_to_plane(dim, &mask), plane, "threads={threads}");
        }
    }

    #[test]
    fn wired_or_matches_scalar_for_every_thread_count() {
        let dim = Dim::square(9);
        let mut scalar = ScalarBackend;
        for threads in [1, 2, 3, 8] {
            let mut be = forced(threads);
            for (seed, dir) in [(3usize, Direction::East), (7, Direction::South)] {
                let open = plane_of(dim, |i| (i * seed + 1) % 4 == 0);
                let vals = plane_of(dim, |i| (i * seed) % 5 == 0);
                let om = be.mask_from_plane(dim, &open);
                let vm = be.mask_from_plane(dim, &vals);
                let got = be.mask_bus_or(dim, &vm, dir, &om).unwrap();
                let want = scalar.mask_bus_or(dim, &vals, dir, &open).unwrap();
                assert_eq!(
                    be.mask_to_plane(dim, &got),
                    want,
                    "threads={threads} dir={dir:?}"
                );
            }
        }
    }

    #[test]
    fn wired_or_matches_scalar_for_every_thread_count_w256() {
        // 441 PEs: both the segment fast path (East) and the key walk
        // (South) straddle the 256-bit word boundary mid-row.
        let dim = Dim::square(21);
        let mut scalar = ScalarBackend;
        for threads in [1, 2, 3, 8] {
            let mut be = ThreadedBackend::<W256>::with_min_parallel(threads, 0);
            for (seed, dir) in [(3usize, Direction::East), (7, Direction::South)] {
                let open = plane_of(dim, |i| (i * seed + 1) % 4 == 0);
                let vals = plane_of(dim, |i| (i * seed) % 5 == 0);
                let om = be.mask_from_plane(dim, &open);
                let vm = be.mask_from_plane(dim, &vals);
                let got = be.mask_bus_or(dim, &vm, dir, &om).unwrap();
                let want = scalar.mask_bus_or(dim, &vals, dir, &open).unwrap();
                assert_eq!(
                    be.mask_to_plane(dim, &got),
                    want,
                    "threads={threads} dir={dir:?}"
                );
            }
        }
    }

    #[test]
    fn broadcast_gather_is_shard_order_independent() {
        let dim = Dim::new(6, 11); // 66 PEs, ragged against both 8 and 64
        let open = plane_of(dim, |i| i % 11 == 0);
        let src = Plane::from_vec(dim, (0..dim.len() as i64).collect());
        let mut reference = ScalarBackend;
        let want = reference
            .broadcast(dim, &src, Direction::East, &open)
            .unwrap();
        for threads in [1, 2, 3, 8] {
            let mut be = forced(threads);
            let got = be.broadcast(dim, &src, Direction::East, &open).unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn driverless_broadcast_faults_like_scalar() {
        let dim = Dim::square(4);
        let mut be = forced(3);
        let open = plane_of(dim, |_| false);
        let src = Plane::filled(dim, 1i64);
        match be.broadcast(dim, &src, Direction::East, &open) {
            Err(MachineError::BusFault { lines, .. }) => assert_eq!(lines, vec![0, 1, 2, 3]),
            other => panic!("expected BusFault, got {other:?}"),
        }
    }

    #[test]
    fn arena_recycles_mask_buffers_through_the_arc() {
        let dim = Dim::square(16);
        let mut be = forced(2);
        for _ in 0..10 {
            let m = be.mask_filled(dim, true);
            drop(m);
        }
        let stats = be.stats();
        assert_eq!(stats.arena_fresh, 1, "one physical buffer serves the loop");
        assert_eq!(stats.arena_reused, 9);
    }

    #[test]
    fn plan_cache_hits_on_repeated_configurations() {
        let dim = Dim::square(8);
        let mut be = forced(2);
        let open = plane_of(dim, |i| i % 8 == 0);
        let src = Plane::from_vec(dim, (0..dim.len() as i64).collect());
        for _ in 0..5 {
            be.broadcast(dim, &src, Direction::East, &open).unwrap();
        }
        let stats = be.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 4);
    }

    #[test]
    fn pool_survives_a_panicking_shard() {
        let pool = WorkerPool::new(3);
        let bomb: ShardJob = Arc::new(|s| {
            if s == 1 {
                panic!("shard bomb");
            }
            Box::new(s) as ShardOut
        });
        let blast = catch_unwind(AssertUnwindSafe(|| pool.run(true, &bomb)));
        assert!(blast.is_err(), "the shard panic propagates to the issuer");
        // The pool is still serviceable afterwards: no wedged worker, no
        // poisoned rendezvous.
        let fine: ShardJob = Arc::new(|s| Box::new(s * 10) as ShardOut);
        let outs = pool.run(true, &fine);
        let got: Vec<usize> = outs
            .into_iter()
            .map(|o| *o.downcast::<usize>().unwrap())
            .collect();
        assert_eq!(got, vec![0, 10, 20]);
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        for len in [0, 1, 7, 64, 65, 4096] {
            for shards in [1, 2, 3, 8] {
                let ranges = shard_ranges(len, shards);
                assert_eq!(ranges.len(), shards);
                let mut at = 0;
                for &(a, b) in &ranges {
                    assert_eq!(a, at.min(len));
                    assert!(b >= a);
                    at = b;
                }
                assert_eq!(ranges.last().unwrap().1, len);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_threads_rejected() {
        let _ = ThreadedBackend::<W64>::new(0);
    }
}
