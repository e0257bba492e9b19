//! `bqt::exec` — the one executor every sharded run goes through.
//!
//! Campaigns (`bqt::shard`), the serve engine and the study runner all
//! have the same shape: a fixed list of independent tasks, a thread
//! count that must never change the output, and results that belong in
//! the task's own slot. [`map`] and [`run`] own that shape once:
//!
//! * **scoped threads** pull tasks off one work queue, so tasks may
//!   borrow the caller's data;
//! * the queue is ordered **largest task first** (LPT) by a caller-given
//!   cost, ties broken by task index, so the biggest shard never starts
//!   last and leaves the other threads idle;
//! * every result lands in **its task's slot**, so the returned order is
//!   task order whatever the scheduling;
//! * a task that panics becomes a typed [`ShardFailed`] in its slot —
//!   caught with `catch_unwind` — while its siblings run to completion;
//! * with [`run`], a **consumer** runs on the calling thread while the
//!   workers execute, receiving every message a task sends through its
//!   `emit` callback, in the order the messages were sent per task.
//!
//! Workers never block on the consumer: messages travel over one
//! unbounded channel, so a consumer that is waiting for a task that has
//! not started yet cannot deadlock the run at any thread count.

use std::cmp::Reverse;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A task that panicked instead of returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailed {
    /// The task's index in the caller's task list (for sharded runs, the
    /// shard id).
    pub id: usize,
    /// The panic message (`"<non-string panic payload>"` when the payload
    /// was neither `&str` nor `String`).
    pub message: String,
}

impl fmt::Display for ShardFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} panicked: {}", self.id, self.message)
    }
}

impl std::error::Error for ShardFailed {}

/// What a worker tells the calling thread.
enum Note<M, R> {
    /// A message from task `usize`, for the consumer.
    Message(usize, M),
    /// Task `usize` returned or panicked.
    Done(usize, Result<R, ShardFailed>),
}

/// The dispatch order: task indices by descending cost, ties by index.
fn lpt_order<T>(tasks: &[T], cost: impl Fn(&T) -> u64) -> Vec<(usize, &T)> {
    let mut order: Vec<(usize, &T)> = tasks.iter().enumerate().collect();
    // A stable sort keeps equal-cost tasks in index order.
    order.sort_by_key(|&(_, task)| Reverse(cost(task)));
    order
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `work(index, task)` for every task on up to `threads` OS threads,
/// largest `cost` first, and returns each result in its task's slot.
pub fn map<T, R>(
    tasks: &[T],
    threads: usize,
    cost: impl Fn(&T) -> u64,
    work: impl Fn(usize, &T) -> R + Sync,
) -> Vec<Result<R, ShardFailed>>
where
    T: Sync,
    R: Send,
{
    run(
        tasks,
        threads,
        cost,
        |i, task, _: &dyn Fn(std::convert::Infallible)| work(i, task),
        |_, never| match never {},
    )
}

/// [`map`] with a consumer: `work(index, task, emit)` may call `emit` any
/// number of times, and `consume(index, message)` runs on the calling
/// thread for each message while the workers execute. Messages from one
/// task reach the consumer in the order that task sent them; messages
/// from different tasks interleave as the threads happen to run.
///
/// The consumer sees no notice when a task ends: a task that must tell
/// the consumer it is finished sends that as its last message, and a
/// task that panics never sends it — so the consumer can tell a finished
/// task from a failed one, and the caller finds the failure in the
/// task's slot.
pub fn run<T, R, M>(
    tasks: &[T],
    threads: usize,
    cost: impl Fn(&T) -> u64,
    work: impl Fn(usize, &T, &dyn Fn(M)) -> R + Sync,
    mut consume: impl FnMut(usize, M),
) -> Vec<Result<R, ShardFailed>>
where
    T: Sync,
    R: Send,
    M: Send,
{
    let order = lpt_order(tasks, cost);
    let threads = threads.clamp(1, tasks.len().max(1));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, ShardFailed>>> = tasks.iter().map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<Note<M, R>>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (order, next, work) = (&order, &next, &work);
            scope.spawn(move || {
                // The claim counter publishes nothing: `order` is built
                // before any thread spawns, so `Relaxed` suffices.
                while let Some(&(i, task)) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let emit = |msg: M| {
                        // A send fails only once the consumer has
                        // panicked; the run is lost then anyway.
                        let _ = tx.send(Note::Message(i, msg));
                    };
                    let result = catch_unwind(AssertUnwindSafe(|| work(i, task, &emit))).map_err(
                        |payload| ShardFailed {
                            id: i,
                            message: panic_message(payload.as_ref()),
                        },
                    );
                    if tx.send(Note::Done(i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        // The workers hold the only senders now, so the loop below ends
        // exactly when the last worker exits.
        drop(tx);
        for note in rx {
            match note {
                Note::Message(i, msg) => consume(i, msg),
                Note::Done(i, result) => {
                    if let Some(slot) = slots.get_mut(i) {
                        *slot = Some(result);
                    }
                }
            }
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(id, slot)| {
            // Every claimed task reports `Done`, and the workers claim
            // every task; an empty slot would mean a worker died outside
            // `catch_unwind`, which is still this task's failure.
            slot.unwrap_or_else(|| {
                Err(ShardFailed {
                    id,
                    message: "worker exited without reporting".to_string(),
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn results_land_in_task_slots_at_any_thread_count() {
        let tasks: Vec<u64> = (0..13).collect();
        for threads in [1, 2, 8] {
            let out = map(&tasks, threads, |&t| t % 4, |i, &t| (i, t * t));
            let want: Vec<Result<(usize, u64), ShardFailed>> =
                (0..13).map(|i| Ok((i as usize, i * i))).collect();
            assert_eq!(out, want, "threads {threads}");
        }
    }

    #[test]
    fn dispatch_is_largest_first_with_index_tie_break() {
        // One thread makes dispatch order observable; slots stay in task
        // order regardless.
        let costs = [3u64, 9, 1, 9, 5, 3];
        let started = Mutex::new(Vec::new());
        let out = map(
            &costs,
            1,
            |&c| c,
            |i, _| {
                started.lock().expect("test lock").push(i);
                i
            },
        );
        assert_eq!(
            started.into_inner().expect("test lock"),
            vec![1, 3, 4, 0, 5, 2]
        );
        assert_eq!(
            out.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn a_panicking_task_fails_its_slot_and_siblings_complete() {
        let tasks: Vec<u32> = (0..9).collect();
        for threads in [1, 2, 8] {
            let out = map(
                &tasks,
                threads,
                |_| 1,
                |i, &t| {
                    if i == 4 {
                        panic!("task {t} refused");
                    }
                    t + 100
                },
            );
            for (i, slot) in out.iter().enumerate() {
                if i == 4 {
                    assert_eq!(
                        slot,
                        &Err(ShardFailed {
                            id: 4,
                            message: "task 4 refused".to_string()
                        }),
                        "threads {threads}"
                    );
                } else {
                    assert_eq!(slot, &Ok(i as u32 + 100), "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn the_consumer_sees_each_tasks_messages_in_send_order() {
        let tasks: Vec<usize> = vec![40, 7, 25];
        for threads in [1, 2, 8] {
            let mut seen: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
            let out = run(
                &tasks,
                threads,
                |&n| n as u64,
                |i, &n, emit| {
                    for k in 0..n {
                        emit(k);
                    }
                    if i == 1 {
                        panic!("after its messages");
                    }
                    n
                },
                |i, k| seen[i].push(k),
            );
            for (i, &n) in tasks.iter().enumerate() {
                assert_eq!(seen[i], (0..n).collect::<Vec<_>>(), "threads {threads}");
            }
            assert_eq!(out[0], Ok(40));
            assert_eq!(out[1].as_ref().map_err(|f| f.id), Err(1));
            assert_eq!(out[2], Ok(25));
        }
    }

    #[test]
    fn no_tasks_is_an_empty_run() {
        let out = map(&[] as &[u8], 4, |_| 0, |_, &t| t);
        assert!(out.is_empty());
    }
}
