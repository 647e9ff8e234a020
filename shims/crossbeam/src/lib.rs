//! Offline stand-in for the `crossbeam` facade.
//!
//! The build environment has no network access to crates.io, so this local
//! crate provides the (small) subset of the crossbeam API the workspace
//! actually uses: `channel::{unbounded, Sender, Receiver}` with blocking,
//! timed and non-blocking receives. Semantics match crossbeam's unbounded
//! MPSC channel: sends never block, `recv` blocks until a message arrives
//! or every sender is dropped, and dropping the receiver makes subsequent
//! sends fail.
//!
//! `agcm-mps` is the only user, so this is its transport: a send wakes the
//! receiver only when it is parked on the condvar (the flag lives under
//! the queue's mutex, so no wake-up is lost), and [`channel::Receiver::is_empty`]
//! reads a lock-free length, which is what lets a receiver poll for an
//! arrival before it parks.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
        /// The receiver is waiting on `cond`. Set and cleared under the
        /// mutex, so a sender that pushed under the same mutex either sees
        /// it or was seen by the receiver's queue check.
        parked: bool,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        cond: Condvar,
        /// `queue.len()`, written under the mutex and read without it.
        len: AtomicUsize,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn pop(&self, st: &mut State<T>) -> Option<T> {
            let v = st.queue.pop_front()?;
            self.len.store(st.queue.len(), Ordering::Release);
            Some(v)
        }
    }

    /// The sending half of an unbounded channel. Cloneable and shareable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned by [`Sender::send`] when the receiver is gone.
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender has been dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message available right now.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed without a message.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    /// Create an unbounded MPSC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receiver_alive: true,
                parked: false,
            }),
            cond: Condvar::new(),
            len: AtomicUsize::new(0),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue a message; never blocks. Fails only if the receiver was
        /// dropped. Wakes the receiver only if it is parked: a notify is a
        /// `futex` system call whether or not anyone waits.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.inner.lock();
            if !st.receiver_alive {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            self.inner.len.store(st.queue.len(), Ordering::Release);
            let wake = st.parked;
            drop(st);
            if wake {
                self.inner.cond.notify_all();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            let mut st = self.inner.lock();
            st.senders += 1;
            drop(st);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.lock();
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                self.inner.cond.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.inner.lock();
            st.receiver_alive = false;
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.lock();
            loop {
                if let Some(v) = self.inner.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.parked = true;
                st = self.inner.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                st.parked = false;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.inner.lock();
            if let Some(v) = self.inner.pop(&mut st) {
                Ok(v)
            } else if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Block until a message arrives, the timeout elapses, or every
        /// sender is dropped.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.inner.lock();
            loop {
                if let Some(v) = self.inner.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.parked = true;
                let (guard, _) = self
                    .inner
                    .cond
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                st.parked = false;
            }
        }

        /// True if no message is queued right now. Lock-free, so a
        /// receiver can poll it in a spin loop without slowing senders.
        pub fn is_empty(&self) -> bool {
            self.inner.len.load(Ordering::Acquire) == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_errors_when_senders_gone() {
        let (tx, rx) = unbounded::<i32>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn try_recv_states() {
        let (tx, rx) = unbounded::<i32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(3));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_expires() {
        let (_tx, rx) = unbounded::<i32>();
        let err = rx.recv_timeout(Duration::from_millis(10));
        assert_eq!(err, Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = unbounded::<i32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn is_empty_follows_the_queue() {
        let (tx, rx) = unbounded();
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert!(!rx.is_empty());
        assert_eq!(rx.try_recv(), Ok(1));
        assert!(!rx.is_empty());
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.is_empty());
    }

    /// A send notifies only a parked receiver, so the window to lose a
    /// wake-up is the receiver parking between the sender's queue push
    /// and its look at the flag. Both happen under one mutex; this ping-pong
    /// of untimed `recv`s — each side parks as soon as it has answered, so
    /// every round crosses that window twice — would hang if they did not.
    #[test]
    fn no_wake_up_is_lost_between_push_and_park() {
        const ROUNDS: u64 = 100_000;
        let (to_b, at_b) = unbounded::<u64>();
        let (to_a, at_a) = unbounded::<u64>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let echo = std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let v = at_b.recv().unwrap();
                    to_a.send(v + 1).unwrap();
                }
            });
            let mut v = 0;
            for _ in 0..ROUNDS {
                to_b.send(v).unwrap();
                v = at_a.recv().unwrap();
            }
            echo.join().unwrap();
            done_tx.send(v).unwrap();
        });
        // Watchdog: a lost wake-up leaves both threads parked for good.
        let v = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("ping-pong hung: a wake-up was lost");
        assert_eq!(v, ROUNDS);
    }
}
