//! Offline stand-in for `crossbeam`: the bounded channel the product's
//! web gateway uses, over `std::sync::mpsc`.

/// `crossbeam::channel`.
pub mod channel {
    use std::sync::mpsc;
    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};
    use std::time::Duration;

    /// Sending half.
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Self(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Blocks until the message is queued.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    /// Receiving half.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks for the next message.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        /// Blocks for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }
    }

    /// A channel holding at most `capacity` messages.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        (Sender(tx), Receiver(rx))
    }
}
