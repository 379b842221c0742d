//! Concurrent operation histories.
//!
//! A [`History`] is the sequence of invocation and response events produced
//! by an execution, as defined in Section 2.1 of the paper. Test harnesses
//! record histories through a thread-safe [`Recorder`] and then check them
//! against the sequential specification with [`crate::check::linearizable`].

use crate::ids::{AccountId, Amount, ProcessId};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Identifier of an operation within one [`History`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// The operation's index in invocation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// An invoked operation of the asset-transfer type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operation {
    /// `transfer(source, destination, amount)`.
    Transfer {
        /// Source account.
        source: AccountId,
        /// Destination account.
        destination: AccountId,
        /// Amount to move.
        amount: Amount,
    },
    /// `read(account)`.
    Read {
        /// The account whose balance is read.
        account: AccountId,
    },
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Transfer {
                source,
                destination,
                amount,
            } => write!(f, "transfer({source},{destination},{amount})"),
            Operation::Read { account } => write!(f, "read({account})"),
        }
    }
}

/// The response of an operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Response {
    /// Response of a transfer: `true` for success, `false` for failure.
    Transfer(bool),
    /// Response of a read: the observed balance.
    Read(Amount),
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Transfer(ok) => write!(f, "{ok}"),
            Response::Read(x) => write!(f, "{x}"),
        }
    }
}

/// A single event in a history: an invocation or a response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Event {
    /// Process `process` invoked operation `op` (identified by `id`).
    Invoke {
        /// The operation identifier.
        id: OpId,
        /// The invoking process.
        process: ProcessId,
        /// The invoked operation.
        op: Operation,
    },
    /// The operation identified by `id` returned `response`.
    Return {
        /// The operation identifier.
        id: OpId,
        /// The returned response.
        response: Response,
    },
}

/// One operation extracted from a history, with its interval endpoints.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// The operation identifier.
    pub id: OpId,
    /// The invoking process.
    pub process: ProcessId,
    /// The invoked operation.
    pub op: Operation,
    /// Index of the invocation event in the history.
    pub invoked_at: usize,
    /// Index of the response event, `None` while pending.
    pub returned_at: Option<usize>,
    /// The recorded response, `None` while pending.
    pub response: Option<Response>,
}

impl OpRecord {
    /// Whether the operation completed (has a response).
    pub fn is_complete(&self) -> bool {
        self.response.is_some()
    }
}

/// A recorded history of invocations and responses.
///
/// Event order in the underlying vector *is* the real-time order used for
/// the precedence relation `≺_H`.
#[derive(Clone, Debug, Default)]
pub struct History {
    events: Vec<Event>,
    op_count: u32,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Records an invocation, returning the fresh operation identifier.
    pub fn invoke(&mut self, process: ProcessId, op: Operation) -> OpId {
        let id = OpId(self.op_count);
        self.op_count += 1;
        self.events.push(Event::Invoke { id, process, op });
        id
    }

    /// Records the response of a previously invoked operation.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not produced by [`History::invoke`] on this
    /// history (a harness bug).
    pub fn respond(&mut self, id: OpId, response: Response) {
        assert!(id.0 < self.op_count, "response for unknown operation {id}");
        self.events.push(Event::Return { id, response });
    }

    /// Number of invoked operations (complete or pending).
    pub fn op_count(&self) -> usize {
        self.op_count as usize
    }

    /// Whether every invocation has a matching response.
    pub fn is_complete(&self) -> bool {
        self.records().iter().all(OpRecord::is_complete)
    }

    /// Extracts one [`OpRecord`] per invoked operation, in [`OpId`] order.
    pub fn records(&self) -> Vec<OpRecord> {
        let mut records: Vec<Option<OpRecord>> = vec![None; self.op_count as usize];
        for (index, event) in self.events.iter().enumerate() {
            match *event {
                Event::Invoke { id, process, op } => {
                    records[id.index()] = Some(OpRecord {
                        id,
                        process,
                        op,
                        invoked_at: index,
                        returned_at: None,
                        response: None,
                    });
                }
                Event::Return { id, response } => {
                    let record = records[id.index()]
                        .as_mut()
                        .expect("return precedes invocation");
                    record.returned_at = Some(index);
                    record.response = Some(response);
                }
            }
        }
        records
            .into_iter()
            .map(|r| r.expect("missing invocation"))
            .collect()
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            match event {
                Event::Invoke { id, process, op } => writeln!(f, "{id} {process} call {op}")?,
                Event::Return { id, response } => writeln!(f, "{id} ret {response}")?,
            }
        }
        Ok(())
    }
}

/// A thread-safe handle for recording a [`History`] from many threads.
///
/// Cloning the recorder shares the underlying history; the global event
/// order is the order in which threads win the internal lock, which happens
/// within each operation's real-time interval, making the recorded order a
/// valid real-time order.
///
/// # Example
///
/// ```
/// use at_model::history::{Operation, Recorder, Response};
/// use at_model::{AccountId, Amount, ProcessId};
///
/// let recorder = Recorder::new();
/// let id = recorder.invoke(
///     ProcessId::new(0),
///     Operation::Read { account: AccountId::new(0) },
/// );
/// recorder.respond(id, Response::Read(Amount::new(7)));
/// let history = recorder.into_history();
/// assert_eq!(history.op_count(), 1);
/// assert!(history.is_complete());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Arc<Mutex<History>>,
}

impl Recorder {
    /// Creates a recorder over an empty history.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Records an invocation; see [`History::invoke`].
    pub fn invoke(&self, process: ProcessId, op: Operation) -> OpId {
        self.inner
            .lock()
            .expect("recorder poisoned")
            .invoke(process, op)
    }

    /// Records a response; see [`History::respond`].
    pub fn respond(&self, id: OpId, response: Response) {
        self.inner
            .lock()
            .expect("recorder poisoned")
            .respond(id, response);
    }

    /// Extracts the recorded history, cloning if other handles remain.
    pub fn into_history(self) -> History {
        match Arc::try_unwrap(self.inner) {
            Ok(mutex) => mutex.into_inner().expect("recorder poisoned"),
            Err(arc) => arc.lock().expect("recorder poisoned").clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn read_op(i: u32) -> Operation {
        Operation::Read {
            account: AccountId::new(i),
        }
    }

    #[test]
    fn sequential_history_records_in_order() {
        let mut h = History::new();
        let id0 = h.invoke(p(0), read_op(0));
        h.respond(id0, Response::Read(Amount::new(1)));
        let id1 = h.invoke(p(1), read_op(1));
        h.respond(id1, Response::Read(Amount::new(2)));

        assert_eq!(h.op_count(), 2);
        assert!(h.is_complete());
        let records = h.records();
        assert_eq!(records[0].invoked_at, 0);
        assert_eq!(records[0].returned_at, Some(1));
        assert_eq!(records[1].invoked_at, 2);
        assert_eq!(records[1].returned_at, Some(3));
    }

    #[test]
    fn concurrent_ops_interleave() {
        let mut h = History::new();
        let id0 = h.invoke(p(0), read_op(0));
        let id1 = h.invoke(p(1), read_op(0));
        h.respond(id1, Response::Read(Amount::ZERO));
        h.respond(id0, Response::Read(Amount::ZERO));
        let records = h.records();
        assert_eq!(records[0].invoked_at, 0);
        assert_eq!(records[0].returned_at, Some(3));
        assert_eq!(records[1].returned_at, Some(2));
    }

    #[test]
    fn pending_operation_is_incomplete() {
        let mut h = History::new();
        let _ = h.invoke(p(0), read_op(0));
        assert!(!h.is_complete());
        let records = h.records();
        assert!(!records[0].is_complete());
        assert_eq!(records[0].response, None);
    }

    #[test]
    #[should_panic(expected = "unknown operation")]
    fn respond_to_unknown_op_panics() {
        let mut h = History::new();
        h.respond(OpId(3), Response::Transfer(true));
    }

    #[test]
    fn recorder_shares_history_across_clones() {
        let recorder = Recorder::new();
        let other = recorder.clone();
        let id = recorder.invoke(p(0), read_op(0));
        other.respond(id, Response::Read(Amount::ZERO));
        drop(other);
        let history = recorder.into_history();
        assert_eq!(history.op_count(), 1);
        assert!(history.is_complete());
    }

    #[test]
    fn recorder_into_history_with_live_clone_clones() {
        let recorder = Recorder::new();
        let keep_alive = recorder.clone();
        let id = recorder.invoke(p(0), read_op(0));
        keep_alive.respond(id, Response::Read(Amount::ZERO));
        let history = recorder.into_history();
        assert_eq!(history.op_count(), 1);
        // The clone still works after extraction.
        let _ = keep_alive.invoke(p(1), read_op(1));
    }

    #[test]
    fn display_renders_events() {
        let mut h = History::new();
        let id = h.invoke(
            p(0),
            Operation::Transfer {
                source: AccountId::new(0),
                destination: AccountId::new(1),
                amount: Amount::new(5),
            },
        );
        h.respond(id, Response::Transfer(true));
        let text = h.to_string();
        assert!(text.contains("transfer(acct0,acct1,5)"));
        assert!(text.contains("ret true"));
    }
}
