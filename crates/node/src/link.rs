//! The replay layer of one directed TCP link as two sans-I/O state
//! machines: no thread, lock, socket or clock in here.
//!
//! [`crate::tcp`] owns the I/O — it holds a [`RecvLink`] per peer for
//! the connections it accepts and a [`SendWindow`] per peer for the
//! one it dials, each under a mutex, and feeds them sequence numbers,
//! handshakes and the time. Everything the exactly-once contract rests
//! on (dedup, resume, epochs) and the one policy decision of the link
//! (*when* a cumulative acknowledgement is owed) is decided here, so
//! changing either is a diff to a pure function with its own tests.
//!
//! # When an acknowledgement is sent
//!
//! An acknowledgement exists to bound the sender's replay window, not
//! to pace the data, so it is a function of the window: the receiver
//! owes one cumulative `DataAck` once [`ACK_INTERVAL`] delivered frames
//! are unacknowledged, or once the link has been quiet for
//! [`ACK_QUIET`] with anything unacknowledged — whichever comes first.
//! Under steady traffic that is one ack per `ACK_INTERVAL` frames; a
//! lone frame on an idle link is acknowledged `ACK_QUIET` later.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Delivered-but-unacknowledged frames at which an ack is owed at once.
pub(crate) const ACK_INTERVAL: u64 = 64;

/// How long a link stays quiet before whatever is unacknowledged is
/// acknowledged anyway. On the transport's reconnect time scale, and
/// well inside a stopping node's drain window, so a graceful stop has
/// acknowledged everything it processed before it quiesces.
pub(crate) const ACK_QUIET: Duration = Duration::from_millis(10);

/// What the receiver does with one `Data` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// New and in sequence: hand the payload to the consumer.
    Deliver,
    /// Replay overlap: already delivered, discard.
    Duplicate,
    /// Drop the connection without acknowledging: a forward gap (which
    /// an ordered stream cannot produce), a connection that a newer
    /// handshake from the same peer has superseded, or a draining
    /// endpoint. The dialer reconnects and replays.
    Violation,
}

/// Receiver side of one directed link: the peer's epoch, the dedup
/// cursor, and what is owed to the peer in acknowledgements.
///
/// Exactly one accepted connection drives the link at a time — the one
/// holding the token the latest [`RecvLink::on_hello`] returned. A
/// newer handshake supersedes it: its resume point acknowledges
/// everything delivered so far, so the older connection has nothing
/// left to vouch for and its remaining frames replay on the new one.
#[derive(Debug, Default)]
pub(crate) struct RecvLink {
    epoch: Option<u64>,
    /// Next expected sequence number.
    next: u64,
    /// Token of the connection that owns the link.
    conn: u64,
    /// The owning connection has not carried a frame yet, so its first
    /// one may jump the cursor forward (see [`RecvLink::on_data`]).
    adopt: bool,
    /// Frames delivered since the last acknowledgement.
    unacked: u64,
    /// When the unacknowledged frames fall due if nothing else
    /// arrives; `Some` exactly while `unacked > 0`.
    quiet_at: Option<Instant>,
    draining: bool,
}

impl RecvLink {
    /// A peer connection named its transport `epoch`. Returns the
    /// connection's token and the resume point for its `HelloAck`, or
    /// `None` when draining: the resume point is itself a cumulative
    /// acknowledgement, which a draining endpoint never gives.
    pub(crate) fn on_hello(&mut self, epoch: u64) -> Option<(u64, u64)> {
        if self.draining {
            return None;
        }
        if self.epoch != Some(epoch) {
            // New incarnation of the peer: its numbering restarts.
            self.epoch = Some(epoch);
            self.next = 0;
        }
        self.conn += 1;
        self.adopt = true;
        self.unacked = 0;
        self.quiet_at = None;
        Some((self.conn, self.next))
    }

    /// Judges the `Data` frame `seq` read by connection `conn` at
    /// `now`. The caller acts on the verdict *before* asking
    /// [`RecvLink::ack_due`], so an ack never covers a frame the
    /// consumer cannot retrieve.
    pub(crate) fn on_data(&mut self, conn: u64, seq: u64, now: Instant) -> Verdict {
        if self.draining || conn != self.conn {
            return Verdict::Violation;
        }
        let adopt = std::mem::take(&mut self.adopt);
        if seq < self.next {
            return Verdict::Duplicate;
        }
        // In sequence — or the first frame after our own warm restart,
        // where the peer's live numbering is ahead of our reset cursor
        // and we adopt it (the skipped frames were acknowledged to our
        // previous incarnation).
        if seq > self.next && !adopt {
            return Verdict::Violation;
        }
        self.next = seq + 1;
        self.unacked += 1;
        self.quiet_at = Some(now + ACK_QUIET);
        Verdict::Deliver
    }

    /// The cumulative acknowledgement connection `conn` owes at `now`,
    /// if any; the caller writes it (or drops the connection).
    pub(crate) fn ack_due(&mut self, conn: u64, now: Instant) -> Option<u64> {
        let due = self.unacked >= ACK_INTERVAL || self.quiet_at.is_some_and(|at| now >= at);
        if due {
            self.final_ack(conn)
        } else {
            None
        }
    }

    /// Whatever connection `conn` owes, due or not — what it sends as
    /// it ends, best effort: unacknowledged frames would otherwise be
    /// replayed to our next incarnation.
    pub(crate) fn final_ack(&mut self, conn: u64) -> Option<u64> {
        if self.draining || conn != self.conn || self.unacked == 0 {
            return None;
        }
        self.unacked = 0;
        self.quiet_at = None;
        // A delivery happened on this epoch, so the cursor is >= 1.
        self.next.checked_sub(1)
    }

    /// When [`RecvLink::ack_due`] next has something to say with no
    /// further frame arriving; `None` when nothing is owed.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        if self.draining {
            None
        } else {
            self.quiet_at
        }
    }

    /// Starts draining: from here the link neither accepts nor
    /// acknowledges anything, so every frame the peer still holds
    /// unacknowledged replays to the next incarnation.
    pub(crate) fn quiesce(&mut self) {
        self.draining = true;
    }
}

/// Sender side of one directed link: the replay window of encoded
/// frames awaiting a cumulative acknowledgement.
#[derive(Debug, Default)]
pub(crate) struct SendWindow {
    /// Unacknowledged `(seq, encoded frame)` entries, contiguous seqs.
    queue: VecDeque<(u64, Arc<Vec<u8>>)>,
    /// Next sequence number to assign.
    next_seq: u64,
}

impl SendWindow {
    /// Frames held (sent or not) awaiting acknowledgement.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether every frame ever pushed has been acknowledged.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Assigns the next sequence number; the frame encoded with it
    /// must be [`SendWindow::push`]ed before the next reservation.
    pub(crate) fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Appends the encoded frame carrying the reserved `seq`.
    pub(crate) fn push(&mut self, seq: u64, frame: Arc<Vec<u8>>) {
        debug_assert!(self.queue.back().is_none_or(|(last, _)| last + 1 == seq));
        self.queue.push_back((seq, frame));
    }

    /// Cumulative acknowledgement: forgets every frame up to and
    /// including `through`.
    pub(crate) fn prune(&mut self, through: u64) {
        while self.queue.front().is_some_and(|(seq, _)| *seq <= through) {
            self.queue.pop_front();
        }
    }

    /// The peer's `HelloAck` named `next_seq` as its resume point:
    /// everything below it reached the peer already. Returns the new
    /// connection's send cursor.
    pub(crate) fn resume(&mut self, next_seq: u64) -> u64 {
        if let Some(through) = next_seq.checked_sub(1) {
            self.prune(through);
        }
        next_seq
    }

    /// Whether a connection whose send cursor is `cursor` has anything
    /// to write.
    pub(crate) fn has_unsent(&self, cursor: u64) -> bool {
        self.queue.back().is_some_and(|(seq, _)| *seq >= cursor)
    }

    /// The frames from `cursor` on, oldest first. A cursor that
    /// predates the window (the peer warm-restarted and asked for 0,
    /// or acks raced ahead) is first moved up to the oldest retained
    /// frame — everything before it was acknowledged, to this
    /// incarnation of the peer or a previous one.
    pub(crate) fn unsent(&self, cursor: &mut u64) -> impl Iterator<Item = &Arc<Vec<u8>>> {
        let front = self.queue.front().map_or(*cursor, |(seq, _)| *seq);
        *cursor = (*cursor).max(front);
        let offset = usize::try_from(*cursor - front).unwrap_or(usize::MAX);
        self.queue.iter().skip(offset).map(|(_, frame)| frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hello(link: &mut RecvLink, epoch: u64) -> (u64, u64) {
        link.on_hello(epoch).expect("not draining")
    }

    #[test]
    fn in_sequence_frames_deliver_and_replays_are_duplicates() {
        let now = Instant::now();
        let mut link = RecvLink::default();
        let (conn, resume) = hello(&mut link, 7);
        assert_eq!(resume, 0);
        for seq in 0..3 {
            assert_eq!(link.on_data(conn, seq, now), Verdict::Deliver);
        }
        // Replay overlap: anything below the cursor, however often.
        for seq in [0, 2, 2] {
            assert_eq!(link.on_data(conn, seq, now), Verdict::Duplicate);
        }
        assert_eq!(link.on_data(conn, 3, now), Verdict::Deliver);
        // A reconnect on the same epoch resumes at the cursor, and the
        // replayed overlap stays a duplicate.
        let (conn, resume) = hello(&mut link, 7);
        assert_eq!(resume, 4);
        assert_eq!(link.on_data(conn, 3, now), Verdict::Duplicate);
        assert_eq!(link.on_data(conn, 4, now), Verdict::Deliver);
    }

    #[test]
    fn only_the_first_frame_of_a_connection_may_jump_the_cursor() {
        let now = Instant::now();
        // Our own warm restart: fresh state, the peer's numbering is
        // live at 40.
        let mut link = RecvLink::default();
        let (conn, resume) = hello(&mut link, 7);
        assert_eq!(resume, 0);
        assert_eq!(link.on_data(conn, 40, now), Verdict::Deliver);
        assert_eq!(link.on_data(conn, 41, now), Verdict::Deliver);
        // Mid-connection a forward gap is a misbehaving peer.
        assert_eq!(link.on_data(conn, 43, now), Verdict::Violation);
        // A duplicate first frame uses the adoption up, too.
        let (conn, _) = hello(&mut link, 7);
        assert_eq!(link.on_data(conn, 41, now), Verdict::Duplicate);
        assert_eq!(link.on_data(conn, 50, now), Verdict::Violation);
    }

    #[test]
    fn a_newer_handshake_supersedes_the_older_connection() {
        let now = Instant::now();
        let mut link = RecvLink::default();
        let (old, _) = hello(&mut link, 7);
        assert_eq!(link.on_data(old, 0, now), Verdict::Deliver);
        // The peer restarted: new epoch, numbering back at 0.
        let (new, resume) = hello(&mut link, 8);
        assert_eq!(resume, 0);
        // The dead incarnation's buffered frames must not touch the
        // fresh cursor, and it has nothing to acknowledge.
        assert_eq!(link.on_data(old, 1, now), Verdict::Violation);
        assert_eq!(link.ack_due(old, now + ACK_QUIET), None);
        assert_eq!(link.final_ack(old), None);
        assert_eq!(link.on_data(new, 0, now), Verdict::Deliver);
        assert_eq!(link.final_ack(new), Some(0));
    }

    #[test]
    fn an_ack_falls_due_at_the_interval_or_after_a_quiet_period() {
        let t0 = Instant::now();
        let mut link = RecvLink::default();
        let (conn, _) = hello(&mut link, 1);
        assert_eq!(link.next_deadline(), None);
        // Steady traffic: nothing is owed before the interval.
        for seq in 0..ACK_INTERVAL - 1 {
            assert_eq!(link.on_data(conn, seq, t0), Verdict::Deliver);
            assert_eq!(link.ack_due(conn, t0), None);
        }
        assert_eq!(link.on_data(conn, ACK_INTERVAL - 1, t0), Verdict::Deliver);
        assert_eq!(link.ack_due(conn, t0), Some(ACK_INTERVAL - 1));
        assert_eq!(link.next_deadline(), None);
        // A lone frame: owed one quiet period after it, not before.
        let t1 = t0 + Duration::from_millis(3);
        assert_eq!(link.on_data(conn, ACK_INTERVAL, t1), Verdict::Deliver);
        assert_eq!(link.next_deadline(), Some(t1 + ACK_QUIET));
        assert_eq!(link.ack_due(conn, t1 + ACK_QUIET / 2), None);
        // More traffic pushes the deadline out: quiet is measured from
        // the last frame.
        let t2 = t1 + ACK_QUIET / 2;
        assert_eq!(link.on_data(conn, ACK_INTERVAL + 1, t2), Verdict::Deliver);
        assert_eq!(link.ack_due(conn, t1 + ACK_QUIET), None);
        assert_eq!(link.ack_due(conn, t2 + ACK_QUIET), Some(ACK_INTERVAL + 1));
        // Acknowledged once: nothing further is owed.
        assert_eq!(link.ack_due(conn, t2 + ACK_QUIET * 2), None);
        assert_eq!(link.final_ack(conn), None);
    }

    #[test]
    fn a_draining_link_accepts_acknowledges_and_resumes_nothing() {
        let now = Instant::now();
        let mut link = RecvLink::default();
        let (conn, _) = hello(&mut link, 1);
        assert_eq!(link.on_data(conn, 0, now), Verdict::Deliver);
        link.quiesce();
        assert_eq!(link.next_deadline(), None);
        assert_eq!(link.ack_due(conn, now + ACK_QUIET), None);
        assert_eq!(link.final_ack(conn), None);
        assert_eq!(link.on_data(conn, 1, now), Verdict::Violation);
        assert_eq!(link.on_hello(1), None);
    }

    fn frame(byte: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![byte])
    }

    fn filled(frames: u8) -> SendWindow {
        let mut window = SendWindow::default();
        for byte in 0..frames {
            let seq = window.reserve();
            assert_eq!(seq, u64::from(byte));
            window.push(seq, frame(byte));
        }
        window
    }

    fn unsent(window: &SendWindow, cursor: &mut u64) -> Vec<u8> {
        window.unsent(cursor).map(|frame| frame[0]).collect()
    }

    #[test]
    fn the_window_keeps_frames_until_cumulatively_acknowledged() {
        let mut window = filled(5);
        assert_eq!(window.len(), 5);
        window.prune(1);
        assert_eq!(window.len(), 3);
        window.prune(0); // a stale ack frees nothing
        assert_eq!(window.len(), 3);
        // Numbering goes on where it was, whatever was pruned.
        assert_eq!(window.reserve(), 5);
        window.prune(u64::MAX);
        assert!(window.is_empty());
    }

    #[test]
    fn a_resume_point_prunes_below_it_and_sets_the_cursor() {
        let mut window = filled(5);
        let mut cursor = window.resume(3);
        assert_eq!(cursor, 3);
        assert_eq!(window.len(), 2);
        assert!(window.has_unsent(cursor));
        assert_eq!(unsent(&window, &mut cursor), vec![3, 4]);
        cursor = 5;
        assert!(!window.has_unsent(cursor));
        assert_eq!(unsent(&window, &mut cursor), Vec::<u8>::new());
        // A resume point of 0 acknowledges nothing.
        let mut window = filled(2);
        assert_eq!(window.resume(0), 0);
        assert_eq!(window.len(), 2);
    }

    #[test]
    fn a_cursor_behind_the_window_jumps_to_its_oldest_frame() {
        // The peer warm-restarted and asked for 0 while frames 0..3
        // were acknowledged to its previous incarnation.
        let mut window = filled(6);
        window.prune(2);
        let mut cursor = window.resume(0);
        assert_eq!(unsent(&window, &mut cursor), vec![3, 4, 5]);
        assert_eq!(cursor, 3);
        // Acks racing ahead of the writer do the same mid-connection.
        cursor = 4;
        window.prune(4);
        assert_eq!(unsent(&window, &mut cursor), vec![5]);
        assert_eq!(cursor, 5);
        // An empty window leaves the cursor alone.
        window.prune(5);
        assert_eq!(unsent(&window, &mut cursor), Vec::<u8>::new());
        assert_eq!(cursor, 5);
    }

    /// One step of the driver the property test plays against a link.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// The peer's next new frame arrives.
        Fresh,
        /// A frame `back` below the newest one arrives again.
        Replay { back: u64 },
        /// Time passes with nothing arriving.
        Wait { micros: u64 },
        /// The peer reconnects on the same epoch.
        Reconnect,
        /// The peer restarts: new epoch, numbering from 0.
        PeerRestart,
        /// We restart: fresh link state, the peer's numbering goes on.
        Restart,
        /// We start draining.
        Quiesce,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..32, 0u64..8, 0u64..15_000).prop_map(|(kind, back, micros)| match kind {
            0..=19 => Op::Fresh,
            20..=22 => Op::Replay { back },
            23..=27 => Op::Wait { micros },
            28 => Op::Reconnect,
            29 => Op::PeerRestart,
            30 => Op::Restart,
            _ => Op::Quiesce,
        })
    }

    /// Plays the I/O layer against a [`RecvLink`] and holds it to the
    /// acknowledgement contract after every step.
    struct Driver {
        link: RecvLink,
        conn: u64,
        epoch: u64,
        now: Instant,
        /// The peer's next fresh sequence number on this epoch.
        peer_next: u64,
        /// Highest sequence number delivered on this epoch.
        delivered: Option<u64>,
        /// Frames delivered and not yet covered by an ack or resume
        /// point, and when the last of them arrived.
        owed: u64,
        last_delivery: Instant,
        draining: bool,
    }

    impl Driver {
        fn new() -> Self {
            let now = Instant::now();
            let mut link = RecvLink::default();
            let (conn, resume) = link.on_hello(1).expect("not draining");
            assert_eq!(resume, 0);
            Driver {
                link,
                conn,
                epoch: 1,
                now,
                peer_next: 0,
                delivered: None,
                owed: 0,
                last_delivery: now,
                draining: false,
            }
        }

        /// An ack was produced: it must be allowed and exact.
        fn check_ack(&mut self, through: u64) {
            assert!(!self.draining, "acknowledged while draining");
            assert!(self.owed > 0, "acknowledged with nothing owed");
            assert_eq!(
                Some(through),
                self.delivered,
                "an ack names exactly the delivered cursor"
            );
            self.owed = 0;
        }

        /// What the I/O layer does after every read, timed out or not.
        fn poll_ack(&mut self) {
            if let Some(through) = self.link.ack_due(self.conn, self.now) {
                self.check_ack(through);
            }
            if self.draining {
                assert_eq!(self.link.next_deadline(), None);
                return;
            }
            assert!(self.owed < ACK_INTERVAL, "interval passed unacknowledged");
            if self.owed == 0 {
                assert_eq!(self.link.next_deadline(), None);
            } else {
                let deadline = self.last_delivery + ACK_QUIET;
                assert_eq!(self.link.next_deadline(), Some(deadline));
                assert!(self.now < deadline, "quiet period passed unacknowledged");
            }
        }

        fn handshake(&mut self) {
            match self.link.on_hello(self.epoch) {
                Some((conn, resume)) => {
                    assert!(!self.draining);
                    // The resume point covers exactly what was
                    // delivered — it is a cumulative ack.
                    assert_eq!(resume, self.delivered.map_or(0, |seq| seq + 1));
                    self.conn = conn;
                    self.owed = 0;
                }
                None => assert!(self.draining, "handshake refused while live"),
            }
        }

        fn step(&mut self, op: Op) {
            match op {
                Op::Fresh => {
                    let seq = self.peer_next;
                    let verdict = self.link.on_data(self.conn, seq, self.now);
                    if self.draining {
                        assert_eq!(verdict, Verdict::Violation);
                    } else {
                        assert_eq!(verdict, Verdict::Deliver);
                        self.peer_next += 1;
                        self.delivered = Some(seq);
                        self.owed += 1;
                        self.last_delivery = self.now;
                    }
                }
                Op::Replay { back } => {
                    let Some(seq) = self.delivered.and_then(|d| d.checked_sub(back)) else {
                        return;
                    };
                    let verdict = self.link.on_data(self.conn, seq, self.now);
                    let expected = if self.draining {
                        Verdict::Violation
                    } else {
                        Verdict::Duplicate
                    };
                    assert_eq!(verdict, expected, "a delivered frame was not deduplicated");
                }
                Op::Wait { micros } => {
                    // A timed read wakes at the deadline if it falls
                    // inside the wait, then the rest of the wait passes.
                    let until = self.now + Duration::from_micros(micros);
                    if let Some(deadline) = self.link.next_deadline().filter(|at| *at <= until) {
                        self.now = self.now.max(deadline);
                        self.poll_ack();
                        assert_eq!(self.owed, 0, "deadline came and nothing was acknowledged");
                    }
                    self.now = until;
                }
                Op::Reconnect => {
                    // The old connection's best-effort exit ack first.
                    if let Some(through) = self.link.final_ack(self.conn) {
                        self.check_ack(through);
                    }
                    self.handshake();
                }
                Op::PeerRestart => {
                    // Its window died with it: nothing is owed any more.
                    self.epoch += 1;
                    self.peer_next = 0;
                    self.delivered = None;
                    self.owed = 0;
                    self.handshake();
                }
                Op::Restart => {
                    // Our next incarnation: the peer replays what the
                    // old one left unacknowledged and goes on from
                    // there; the first frame is adopted.
                    self.link = RecvLink::default();
                    self.draining = false;
                    self.peer_next -= self.owed;
                    self.delivered = None;
                    self.handshake();
                }
                Op::Quiesce => {
                    self.link.quiesce();
                    self.draining = true;
                }
            }
            self.poll_ack();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random interleavings of deliveries, replays, clock
        /// advances, reconnects and restarts: never an ack beyond the
        /// delivered cursor, never an ack (or resume point) while
        /// draining, never a frame delivered twice, and every
        /// delivered frame covered by an ack no later than `ACK_QUIET`
        /// after the link goes quiet or at the `ACK_INTERVAL`-th
        /// unacknowledged frame.
        #[test]
        fn acks_are_exact_timely_and_never_given_while_draining(
            ops in prop::collection::vec(op(), 1..400),
        ) {
            let mut driver = Driver::new();
            for op in ops {
                driver.step(op);
            }
        }
    }
}
