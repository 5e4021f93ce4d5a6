//! A hand-rolled fixed worker pool (std-only: threads, channels, mutexes).
//!
//! The environment is offline, so there is no `rayon`/`crossbeam` to lean
//! on.  The pool is the classic shared-receiver design: one unbounded mpsc
//! channel of jobs, `workers` threads competing on an `Arc<Mutex<Receiver>>`
//! to pull the next one.  The mutex is taken once per *request* — requests
//! do real work (plan-cache lookup, snapshot pin, bounded fetches) — so the
//! shared receiver is nowhere near the critical path.  Back-pressure is the
//! engine's job: it counts queued requests and sheds load *before*
//! submitting (see [`EngineConfig::max_queue`](crate::EngineConfig)).
//!
//! Shutdown is by hang-up: dropping the pool drops the sender, every worker
//! drains what is left and exits on the channel's disconnect, and `Drop`
//! joins them.

use crate::error::EngineError;
use crate::{QueryResponse, Request, Shared};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued request plus the channel its result goes back on.
pub(crate) struct Job {
    pub request: Request,
    pub reply: mpsc::Sender<Result<QueryResponse, EngineError>>,
    /// When the job entered the queue — the worker measures queue wait from
    /// it into the `si_queue_wait_ns` histogram (and the request's trace).
    pub submitted: Instant,
}

/// The fixed pool of serving threads.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Most additional queued jobs one worker drains behind the job it
    /// dequeued when request batching is on — bounds both the extra time
    /// under the receiver lock and the latency of the drained requests.
    const DRAIN_MAX: usize = 32;

    /// Spawns `workers` threads serving requests against `shared`.
    pub fn start(shared: Arc<Shared>, workers: usize) -> Self {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let batching = shared.config.batch_requests;
        let handles = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("si-engine-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing.  With
                        // batching on, also drain whatever queued up behind
                        // the job — those requests are about to be grouped
                        // onto shared fetches, so taking them now is what
                        // creates the groups.
                        let jobs = match receiver.lock() {
                            Ok(guard) => match guard.recv() {
                                Ok(first) => {
                                    let mut jobs = vec![first];
                                    while batching && jobs.len() < Self::DRAIN_MAX {
                                        match guard.try_recv() {
                                            Ok(job) => jobs.push(job),
                                            Err(_) => break,
                                        }
                                    }
                                    jobs
                                }
                                Err(_) => break,
                            },
                            Err(_) => break,
                        };
                        // Every job's measured wait goes to the histogram
                        // and, through the serve path, to its trace.  One
                        // job is a lone read; more are grouped onto shared
                        // fetches.
                        let mut requests = Vec::with_capacity(jobs.len());
                        let mut waits = Vec::with_capacity(jobs.len());
                        let mut replies = Vec::with_capacity(jobs.len());
                        for job in jobs {
                            let wait = crate::nanos_of(job.submitted.elapsed());
                            shared.telemetry.queue_wait.record(wait);
                            requests.push(job.request);
                            waits.push(wait);
                            replies.push(job.reply);
                        }
                        let results = shared.serve_batch(&requests, &waits);
                        for (reply, result) in replies.iter().zip(results) {
                            // A dropped reply receiver just means the client
                            // gave up waiting; the work is already merged
                            // into the engine's metrics.
                            let _ = reply.send(result);
                            // The queue slot frees only once the reply is
                            // delivered: `queued` counts admitted requests
                            // the engine still owes work on.
                            shared.queued.fetch_sub(1, Ordering::Relaxed);
                        }
                    })
                    .expect("failed to spawn engine worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
        }
    }

    /// Hands a job to the pool.
    pub fn submit(&self, job: Job) -> Result<(), EngineError> {
        self.sender
            .as_ref()
            .ok_or(EngineError::ShuttingDown)?
            .send(job)
            .map_err(|_| EngineError::ShuttingDown)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Hang up, then join: workers drain the queue and exit.
        self.sender.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
