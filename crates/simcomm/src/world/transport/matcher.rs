//! Which queued message a receive request gets: the k-th message of a
//! `(src, tag)` stream goes to the k-th request for it, whatever else is
//! queued around them.

use std::collections::VecDeque;

use super::Message;

/// One receive request of a wait. Ordered by `(src, tag, slot)`, which puts
/// the requests of one `(src, tag)` stream side by side in request order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Pattern {
    pub(super) src: usize,
    tag: u64,
    /// Index of the request in the caller's batch.
    pub(super) slot: usize,
}

/// Matches the receive requests of one wait against the rank's mailbox: the
/// k-th queued message of a `(src, tag)` stream goes to the k-th request for
/// it. Lives in [`WaitScratch`], so matching allocates nothing after
/// warm-up.
///
/// One scan: the patterns are sorted once per wait and each queued message
/// is looked up by a single binary search that lands on the first unmatched
/// request of its stream. The scan is incremental across wakeups: only the
/// owner removes from its mailbox and deposits go to the back, so positions
/// examined by an earlier [`Matcher::advance`] are stable, and a message
/// that found no unmatched request then can find none later.
#[derive(Default)]
pub(super) struct Matcher {
    pub(super) patterns: Vec<Pattern>,
    /// Per-pattern "a queued message has been picked for it" flags. Matching
    /// is FIFO, so within one stream the taken patterns are a prefix.
    taken: Vec<bool>,
    /// `(slot, queue position)` picks so far, in ascending queue position.
    pub(super) picks: Vec<(usize, usize)>,
    /// Queue positions below this have been examined.
    scanned: usize,
}

impl Matcher {
    /// Begin a wait over the given `(src, tag, slot)` receive requests.
    pub(super) fn start(&mut self, recvs: impl Iterator<Item = (usize, u64, usize)>) {
        self.patterns.clear();
        self.patterns.extend(recvs.map(|(src, tag, slot)| Pattern { src, tag, slot }));
        self.patterns.sort_unstable();
        self.taken.clear();
        self.taken.resize(self.patterns.len(), false);
        self.picks.clear();
        self.scanned = 0;
    }

    /// Index of the first unmatched pattern of the `(src, tag)` stream: one
    /// binary search, because "sorts before the stream, or belongs to it and
    /// is taken" holds for a prefix of the sorted patterns.
    fn first_free(&self, src: usize, tag: u64) -> Option<usize> {
        let key = (src, tag);
        let (mut lo, mut hi) = (0, self.patterns.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let p = &self.patterns[mid];
            if (p.src, p.tag) < key || ((p.src, p.tag) == key && self.taken[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.patterns.get(lo).is_some_and(|p| (p.src, p.tag) == key).then_some(lo)
    }

    /// Examine the messages queued since the last call. Returns `true` once
    /// every pattern has a pick, `false` if the queue cannot satisfy them all
    /// yet (call again after the next wakeup).
    pub(super) fn advance(&mut self, q: &VecDeque<Message>) -> bool {
        while self.picks.len() < self.patterns.len() {
            let Some(m) = q.get(self.scanned) else { return false };
            if let Some(i) = self.first_free(m.src, m.tag) {
                self.taken[i] = true;
                self.picks.push((self.patterns[i].slot, self.scanned));
            }
            self.scanned += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The O(queue × patterns) greedy matcher [`Matcher`] replaced, kept as its
    /// oracle: match every `(slot, src, tag)` pattern against the whole queue in
    /// FIFO order, restarting from the head on every call.
    fn match_requests_greedy(
        q: &VecDeque<Message>,
        patterns: &[(usize, usize, u64)],
        picks: &mut Vec<(usize, usize)>,
    ) -> bool {
        let mut taken = vec![false; patterns.len()];
        picks.clear();
        if patterns.is_empty() {
            return true;
        }
        for (qpos, m) in q.iter().enumerate() {
            if let Some(i) = patterns
                .iter()
                .enumerate()
                .position(|(i, &(_, src, tag))| !taken[i] && m.src == src && m.tag == tag)
            {
                taken[i] = true;
                picks.push((patterns[i].0, qpos));
                if picks.len() == patterns.len() {
                    return true;
                }
            }
        }
        false
    }

    /// A queued message as the matcher sees it (it never looks inside).
    fn queued(src: usize, tag: u64) -> Message {
        Message { src, tag, depart: 0.0, bytes: 0, corr: 0, payload: Box::new(()) }
    }

    #[test]
    fn matcher_agrees_with_the_greedy_oracle() {
        use crate::fault::splitmix64;
        // Few sources and tags, so the streams are heavily duplicated and
        // interleaved; extra queue traffic nobody asked for ("strangers")
        // lands ahead of, between and behind the matches.
        for seed in 0..400u64 {
            let draw = |salt: u64, bound: u64| splitmix64(seed << 20 ^ salt) % bound;
            let n_patterns = draw(1, 13) as usize;
            let patterns: Vec<(usize, usize, u64)> = (0..n_patterns)
                .map(|slot| (slot, draw(100 + slot as u64, 3) as usize, draw(200 + slot as u64, 3)))
                .collect();
            let n_queue = draw(2, 30) as usize;
            let queue: Vec<(usize, u64)> = (0..n_queue as u64)
                .map(|k| (draw(300 + k, 4) as usize, draw(400 + k, 4)))
                .collect();
            // The queue grows between two incremental calls, as it does
            // across a wakeup; the oracle sees each prefix from scratch.
            let split = draw(3, n_queue as u64 + 1) as usize;
            let mut matcher = Matcher::default();
            matcher.start(patterns.iter().map(|&(slot, src, tag)| (src, tag, slot)));
            let mut oracle_picks = Vec::new();
            let mut q = VecDeque::new();
            for upto in [split, n_queue] {
                while q.len() < upto {
                    let (src, tag) = queue[q.len()];
                    q.push_back(queued(src, tag));
                }
                let done = matcher.advance(&q);
                let oracle_done = match_requests_greedy(&q, &patterns, &mut oracle_picks);
                assert_eq!(done, oracle_done, "seed {seed}, queue prefix {upto}");
                // Also while incomplete: the picks so far are a prefix of
                // the final answer, in queue order.
                assert_eq!(matcher.picks, oracle_picks, "seed {seed}, queue prefix {upto}");
            }
        }
    }

    #[test]
    fn matcher_keeps_fifo_order_within_duplicate_streams() {
        // Two requests for (0, 7) around one for (0, 9); strangers first.
        let mut matcher = Matcher::default();
        matcher.start([(0, 7, 0), (0, 9, 1), (0, 7, 2)].into_iter());
        let mut q: VecDeque<Message> =
            [(5, 7), (0, 8), (0, 7), (0, 9)].into_iter().map(|(s, t)| queued(s, t)).collect();
        assert!(!matcher.advance(&q), "the second (0, 7) message is still missing");
        assert_eq!(matcher.picks, vec![(0, 2), (1, 3)]);
        let slot_for = |src, tag| matcher.first_free(src, tag).map(|i| matcher.patterns[i].slot);
        assert_eq!(slot_for(0, 7), Some(2), "the next (0, 7) message completes slot 2");
        assert_eq!(slot_for(0, 9), None);
        q.push_back(queued(0, 7));
        q.push_back(queued(0, 7));
        assert!(matcher.advance(&q));
        assert_eq!(matcher.picks, vec![(0, 2), (1, 3), (2, 4)]);
        assert_eq!(matcher.scanned, 5, "the scan stops at the last pick");
    }
}
