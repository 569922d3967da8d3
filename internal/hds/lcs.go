package hds

import (
	"math/bits"
	"slices"

	"prefix/internal/mem"
)

// The LCS miner is the paper's replacement for Sequitur (§3.1): split the
// hot reference string into fixed-length windows and compute the Longest
// Common Subsequence between neighbouring windows. A subsequence common to
// two separate stretches of the trace is, by construction, a repeated
// access pattern — a hot data stream candidate. Candidates discovered from
// many window pairs accumulate heat and rise in the OHDS ranking.

// LCS computes a longest common subsequence of a and b with the
// bit-parallel kernel (see lcsBuf.pair). Deterministic: the result is
// exactly the one the classic O(len(a)·len(b)) dynamic program yields
// when its traceback prefers dropping a's element on ties, so equal
// inputs yield equal outputs across runs.
//
//prefix:hotpath
func LCS(a, b []mem.ObjectID) []mem.ObjectID {
	var lb lcsBuf
	return lb.lcs(a, b)
}

// lcsTable is one window's match table for the bit-parallel kernel:
// the window's distinct values in ascending order, the bit mask of the
// positions holding each, and each position's index into the values.
// It is built once per window and reused for every pair the window
// takes part in, on either side.
type lcsTable struct {
	win  []mem.ObjectID // the window itself (aliased, not copied)
	vals []mem.ObjectID // distinct values of win, ascending
	rank []int32        // rank[p] is the index in vals of win[p]
	// masks holds one words-long position mask per value: entry 0 is
	// all zeros (the mask of a value the window lacks), entry k+1 marks
	// the positions holding vals[k].
	masks []uint64
	words int // ⌈len(win)/64⌉
	id    int // window index held by this ring slot in MineLCS
}

// build fills t for window w, reusing t's buffers.
//
//prefix:hotpath
func (t *lcsTable) build(w []mem.ObjectID) {
	n := len(w)
	words := (n + 63) / 64
	t.win, t.words = w, words
	if cap(t.vals) < n {
		//lint:ignore hotalloc the table's buffers grow to the window length once, then every later window reuses them
		t.vals = make([]mem.ObjectID, n)
		//lint:ignore hotalloc grows once with vals
		t.rank = make([]int32, n)
	}
	if cap(t.masks) < (n+1)*words {
		//lint:ignore hotalloc grows once with vals
		t.masks = make([]uint64, (n+1)*words)
	}
	vals := t.vals[:n]
	copy(vals, w)
	slices.Sort(vals)
	vals = slices.Compact(vals)
	masks := t.masks[:(len(vals)+1)*words]
	clear(masks)
	rank := t.rank[:n]
	for p, v := range w {
		k, _ := slices.BinarySearch(vals, v)
		rank[p] = int32(k)
		masks[(k+1)*words+p>>6] |= 1 << (p & 63)
	}
	t.vals, t.rank, t.masks = vals, rank, masks
}

// lcsBuf owns the kernel's reusable buffers — the row words, the cross
// index between two tables, the output, and scratch tables for lcs —
// so a mining loop computing thousands of window-pair LCSes allocates
// them once instead of per pair. The zero value is ready to use.
type lcsBuf struct {
	rows   []uint64
	cross  []int32
	out    []mem.ObjectID
	ta, tb lcsTable
}

// lcs is LCS over the reusable buffers: it builds both windows' tables
// and runs the kernel. The result aliases lb and is valid until the
// next call.
//
//prefix:hotpath
func (lb *lcsBuf) lcs(a, b []mem.ObjectID) []mem.ObjectID {
	lb.ta.build(a)
	lb.tb.build(b)
	return lb.pair(&lb.ta, &lb.tb)
}

// pair is the bit-parallel LCS kernel (Allison–Dix, in Hyyrö's
// formulation) over two prebuilt tables. Row i of the dynamic program
// dp(i, j) = LCS length of a[:i] and b[:j] is kept as a bit vector V_i
// over b's positions, where bit j-1 is clear exactly when
// dp(i, j) = dp(i, j-1) + 1; with M the mask of b's positions holding
// a[i-1],
//
//	U = V_{i-1} & M;  V_i = (V_{i-1} + U) | (V_{i-1} - U)
//
// (V_0 is all ones). Each row is ⌈m/64⌉ words with the carry running
// upward, so one word per row when m ≤ 64. Keeping every row gives
// dp(i, j) = j − popcount(V_i & low(j)) in O(m/64), so the traceback
// makes the classic table's exact dp(i-1, j) >= dp(i, j-1) tie-break and
// returns the same subsequence. The result aliases lb.
//
//prefix:hotpath
func (lb *lcsBuf) pair(ta, tb *lcsTable) []mem.ObjectID {
	a, b := ta.win, tb.win
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	words := tb.words

	// cross[k] is the masks entry in tb of a's k-th distinct value: a
	// merge of the two sorted value lists.
	if cap(lb.cross) < len(ta.vals) {
		//lint:ignore hotalloc kernel buffers grow to the high-water mark once, then every later pair reuses them
		lb.cross = make([]int32, len(ta.vals))
	}
	cross := lb.cross[:len(ta.vals)]
	j := 0
	for k, v := range ta.vals {
		for j < len(tb.vals) && tb.vals[j] < v {
			j++
		}
		cross[k] = 0
		if j < len(tb.vals) && tb.vals[j] == v {
			cross[k] = int32(j + 1)
		}
	}

	if cap(lb.rows) < (n+1)*words {
		//lint:ignore hotalloc grows once, like cross
		lb.rows = make([]uint64, (n+1)*words)
	}
	rows := lb.rows[:(n+1)*words]
	for w := range rows[:words] {
		rows[w] = ^uint64(0)
	}
	if words == 1 {
		v := ^uint64(0)
		for i, r := range ta.rank {
			u := v & tb.masks[cross[r]]
			v = (v + u) | (v &^ u)
			rows[i+1] = v
		}
	} else {
		for i, r := range ta.rank {
			c := int(cross[r]) * words
			match := tb.masks[c : c+words]
			prev := rows[i*words : (i+1)*words]
			cur := rows[(i+1)*words : (i+2)*words]
			var carry uint64
			for w, v := range prev {
				u := v & match[w]
				var sum uint64
				sum, carry = bits.Add64(v, u, carry)
				cur[w] = sum | (v &^ u)
			}
		}
	}

	if cap(lb.out) < min(n, m) {
		//lint:ignore hotalloc grows once, like cross; never nil here, so an empty LCS stays a non-nil empty slice
		lb.out = make([]mem.ObjectID, min(n, m))
	}
	k := m - onesBelow(rows[n*words:], m)
	out := lb.out[:k]
	for i, j := n, m; i > 0 && j > 0; {
		switch {
		case a[i-1] == b[j-1]:
			k--
			out[k] = a[i-1]
			i--
			j--
		case j-onesBelow(rows[(i-1)*words:], j) >= j-1-onesBelow(rows[i*words:], j-1):
			i-- // dp(i-1, j) >= dp(i, j-1)
		default:
			j--
		}
	}
	return out
}

// onesBelow counts the set bits among the lowest j bits of the row
// starting at row[0].
//
//prefix:hotpath
func onesBelow(row []uint64, j int) int {
	c := 0
	for _, x := range row[:j>>6] {
		c += bits.OnesCount64(x)
	}
	if r := j & 63; r != 0 {
		c += bits.OnesCount64(row[j>>6] & (1<<r - 1))
	}
	return c
}

// MineLCS mines hot data streams from a (hot-filtered, collapsed)
// reference string using windowed LCS.
func MineLCS(refs []mem.ObjectID, cfg Config) []Stream {
	w := cfg.Window
	if w <= 0 {
		w = 64
	}
	if len(refs) < 2*w {
		// Short profile: one LCS of the two halves still finds the
		// repeating core.
		half := len(refs) / 2
		if half < cfg.MinLength {
			return nil
		}
		sub := LCS(refs[:half], refs[half:])
		if len(dedupeInto(nil, sub)) < cfg.MinLength {
			return nil
		}
		return rankAndTrim([]Stream{{Objects: sub, Heat: 2 * uint64(len(sub))}}, cfg)
	}

	// Candidate accumulation across window pairs at multiple lags.
	type acc struct {
		stream Stream
		count  uint64
	}
	cands := make(map[string]*acc)
	var order []string
	var lb lcsBuf // kernel buffers reused across every window pair

	lags := cfg.Lags
	if len(lags) == 0 {
		lags = []int{1}
	}
	// Each window's match table is built once, into a ring slot that
	// outlives every pair it takes part in: anchor i pairs with windows
	// up to i+maxLag, which occupy distinct slots of a ring of maxLag+1.
	ring := make([]lcsTable, slices.Max(lags)+1)
	for k := range ring {
		ring[k].id = -1
	}
	table := func(k int) *lcsTable {
		t := &ring[k%len(ring)]
		if t.id != k {
			t.build(refs[k*w : (k+1)*w])
			t.id = k
		}
		return t
	}
	members := make([]mem.ObjectID, 0, w)
	var key []byte

	windows := len(refs) / w
	// Bound total LCS work: long profiles are sampled by striding the
	// anchor window. ~20k pairs keeps mining fast regardless of trace
	// length.
	const maxPairs = 20000
	step := 1
	if windows*len(lags) > maxPairs {
		step = (windows*len(lags) + maxPairs - 1) / maxPairs
	}
	for i := 0; i < windows; i += step {
		ta := table(i)
		for _, lag := range lags {
			j := i + lag
			if j >= windows {
				break
			}
			members = dedupeInto(members, lb.pair(ta, table(j)))
			if len(members) < cfg.MinLength {
				continue
			}
			key = appendKey(key[:0], members)
			if c, ok := cands[string(key)]; ok {
				c.count++
			} else {
				k := string(key)
				cands[k] = &acc{stream: Stream{Objects: slices.Clone(members)}, count: 1}
				order = append(order, k)
			}
		}
	}

	var out []Stream
	for _, k := range order {
		c := cands[k]
		freq := c.count + 1 // a match between two windows = 2 occurrences
		if int(freq) < cfg.MinFrequency {
			continue
		}
		s := c.stream
		s.Heat = freq * uint64(len(s.Objects))
		out = append(out, s)
	}
	return rankAndTrim(out, cfg)
}

// WeighByAccesses rescales stream heat by the total access counts of the
// member objects, producing the "descending order of memory references"
// ranking Algorithm 1 expects. accesses maps object → access count from
// the trace analysis.
func WeighByAccesses(streams []Stream, accesses map[mem.ObjectID]uint64) []Stream {
	out := make([]Stream, len(streams))
	copy(out, streams)
	for i := range out {
		var total uint64
		for _, o := range out[i].Objects {
			total += accesses[o]
		}
		out[i].Heat = total
	}
	// Stable to preserve miner order on ties.
	sortStreamsByHeat(out)
	return out
}

func sortStreamsByHeat(s []Stream) {
	// simple stable insertion by heat desc (stream lists are small)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Heat > s[j-1].Heat; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
