package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/spf"
)

// keyTable renders workload.Key(i) for every preloaded key once.
func keyTable(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = workload.Key(i)
	}
	return keys
}

// keyIndex inverts workload.Key.
func keyIndex(key []byte) (int, bool) {
	const prefix = "user"
	if len(key) != len(prefix)+10 || string(key[:len(prefix)]) != prefix {
		return 0, false
	}
	n := 0
	for _, d := range key[len(prefix):] {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// owner is the only client that ever writes key i; owning keys is what
// lets a client predict exactly what it must read back.
func owner(i int) int { return i % clients }

// ownedKey moves key index i onto the nearest key client c owns.
func ownedKey(i, c, n int) int {
	i = i - owner(i) + c
	if i >= n {
		i -= clients
	}
	return i
}

// preload inserts every key with its preload value, 1000 per txn.
func preload(db *spf.DB, ix *spf.Index, keys [][]byte) error {
	var val []byte
	for lo := 0; lo < len(keys); lo += 1000 {
		tx := db.Begin()
		for _, k := range keys[lo:min(lo+1000, len(keys))] {
			val = appendValue(val[:0], k, preloadWriter, 0)
			if err := ix.Insert(tx, k, val); err != nil {
				return fmt.Errorf("preload %q: %w", k, err)
			}
		}
		if err := db.Commit(tx); err != nil {
			return fmt.Errorf("preload commit: %w", err)
		}
	}
	return nil
}

// opStream is one client's seeded operation stream.
type opStream struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	keys     int
	readFrac float64
}

func newStream(seed int64, client, keys int, readFrac, zipfS float64) *opStream {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1))
	st := &opStream{rng: rng, keys: keys, readFrac: readFrac}
	if zipfS > 1 {
		st.zipf = rand.NewZipf(rng, zipfS, 1, uint64(keys-1))
	}
	return st
}

// streams makes one stream per client from seed.
func streams(seed int64, keys int, readFrac, zipfS float64) []*opStream {
	s := make([]*opStream, clients)
	for c := range s {
		s[c] = newStream(seed, c, keys, readFrac, zipfS)
	}
	return s
}

// next returns whether the op is a read, and its key index.
func (st *opStream) next() (read bool, key int) {
	read = st.rng.Float64() < st.readFrac
	if st.zipf != nil {
		return read, int(st.zipf.Uint64())
	}
	return read, st.rng.Intn(st.keys)
}

// backend executes one read or one acknowledged write, recording spans
// into sb when it is non-nil.
type backend interface {
	get(dst, key []byte, sb *spanBuf, req uint64) ([]byte, error)
	put(key, val []byte, sb *spanBuf, req uint64) error
}

// wireBackend goes through a server.Client.
type wireBackend struct{ cl *server.Client }

func (w wireBackend) get(_, key []byte, sb *spanBuf, req uint64) ([]byte, error) {
	i := sb.begin(spanWireGet, -1, req)
	v, st, err := w.cl.Get(indexName, key)
	sb.end(i)
	if err == nil && st != server.StatusOK {
		err = fmt.Errorf("GET status %s", st)
	}
	return v, err
}

func (w wireBackend) put(key, val []byte, sb *spanBuf, req uint64) error {
	i := sb.begin(spanWirePut, -1, req)
	_, err := w.cl.Put(indexName, key, val)
	sb.end(i)
	return err
}

// procBackend calls the engine directly, the way the server's dispatch
// does: GetTo for a read, an upsert transaction for a write.
type procBackend struct {
	db *spf.DB
	ix *spf.Index
}

func (p procBackend) get(dst, key []byte, sb *spanBuf, req uint64) ([]byte, error) {
	root := sb.begin(spanOpGet, -1, req)
	e := sb.begin(spanEngineGet, root, req)
	v, err := p.ix.GetTo(dst, key)
	sb.end(e)
	sb.end(root)
	return v, err
}

func (p procBackend) put(key, val []byte, sb *spanBuf, req uint64) error {
	root := sb.begin(spanOpPut, -1, req)
	defer sb.end(root)
	tx := p.db.Begin()
	e := sb.begin(spanEngineUpd, root, req)
	err := p.ix.Update(tx, key, val)
	if errors.Is(err, spf.ErrNotFound) {
		err = p.ix.Insert(tx, key, val)
	}
	sb.end(e)
	if err != nil {
		_ = tx.Abort()
		return err
	}
	c := sb.begin(spanCommit, root, req)
	err = p.db.Commit(tx)
	sb.end(c)
	return err
}

// ledger is what the clients know about acknowledged writes. acked[i]
// is the sequence number of the last acknowledged write of key i (0 =
// still the preload value); only owner(i) writes or reads acked[i].
type ledger struct {
	keys      [][]byte
	acked     []uint64
	seq       [clients]uint64 // per-writer sequence, never reused
	userBytes [clients]int64  // key+value bytes of acknowledged writes
	lastKey   [clients]int    // the key each writer acknowledged last
	recent    [clients][]int  // keys each writer acknowledged since takeRecent
}

func newLedger(keys [][]byte) *ledger {
	l := &ledger{keys: keys, acked: make([]uint64, len(keys))}
	for c := range l.lastKey {
		l.lastKey[c] = c
	}
	return l
}

// bytesWritten is the key+value bytes of every acknowledged write so far.
func (l *ledger) bytesWritten() int64 {
	var n int64
	for _, b := range l.userBytes {
		n += b
	}
	return n
}

// takeRecent returns the keys acknowledged since the last call and
// forgets them. Call it only while no client runs.
func (l *ledger) takeRecent() []int {
	var keys []int
	for c := range l.recent {
		keys = append(keys, l.recent[c]...)
		l.recent[c] = l.recent[c][:0]
	}
	return keys
}

// check verifies a value client c read for key i.
func (l *ledger) check(c, i int, v []byte) error {
	w, seq, err := parseValue(l.keys[i], v)
	if err != nil {
		return err
	}
	own := owner(i)
	switch {
	case w == preloadWriter:
		if seq != 0 {
			return fmt.Errorf("key %q: preload value with sequence %d", l.keys[i], seq)
		}
		if own == c && l.acked[i] != 0 {
			return fmt.Errorf("key %q: acknowledged write %d lost, preload value read", l.keys[i], l.acked[i])
		}
	case int(w) != own:
		return fmt.Errorf("key %q: written by client %d, which does not own it", l.keys[i], w)
	case own == c && seq != l.acked[i]:
		return fmt.Errorf("key %q: read sequence %d, last acknowledged %d", l.keys[i], seq, l.acked[i])
	}
	return nil
}

// recs are one client's latency recorders.
type recs struct{ read, write, probe Recorder }

// newRecs makes one set of recorders per client.
func newRecs() []*recs {
	r := make([]*recs, clients)
	for c := range r {
		r[c] = &recs{}
	}
	return r
}

// recBytes is the memory the samples of r occupy.
func recBytes(r []*recs) int64 {
	var n int64
	for _, rc := range r {
		n += rc.read.Bytes() + rc.write.Bytes() + rc.probe.Bytes()
	}
	return n
}

// mergeRecs merges per-client recorders.
func mergeRecs(r []*recs) *recs {
	all := &recs{}
	for _, rc := range r {
		all.read.Merge(&rc.read)
		all.write.Merge(&rc.write)
		all.probe.Merge(&rc.probe)
	}
	return all
}

// probeFunc runs probe n inline in client 0's loop.
type probeFunc func(n int, r *recs, sb *spanBuf, out *outcome)

// clientRun is one leg of closed-loop clients: each client runs its
// stream on its backend until the deadline passes or, when budget > 0,
// for budget operations. Reads are verified against the ledger and
// acknowledged writes entered into it. recs and spans are per client and
// may be nil (nothing recorded); probe, when set, runs in client 0 after
// every probeEvery operations.
type clientRun struct {
	backend    func(c int) backend
	ledger     *ledger
	deadline   time.Time
	budget     int
	recs       []*recs
	spans      []*spanBuf
	probeEvery int
	probe      probeFunc
}

// run runs every client concurrently on its stream and returns the
// completed operations and the merged tally.
func (cr clientRun) run(st []*opStream) (int64, *outcome) {
	outs := make([]outcome, clients)
	done := make([]int64, clients)
	finished := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			done[c] = cr.loop(c, st[c], &outs[c])
			finished <- struct{}{}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-finished
	}
	out := &outcome{}
	var ops int64
	for c := range outs {
		out.merge(&outs[c])
		ops += done[c]
	}
	return ops, out
}

func (cr clientRun) loop(c int, st *opStream, out *outcome) int64 {
	var r *recs
	if cr.recs != nil {
		r = cr.recs[c]
	}
	var sb *spanBuf
	if cr.spans != nil {
		sb = cr.spans[c]
	}
	be, l := cr.backend(c), cr.ledger
	var buf, val []byte
	done := int64(0)
	for i := 0; ; i++ {
		if cr.budget > 0 {
			if i >= cr.budget {
				break
			}
		} else if time.Now().After(cr.deadline) {
			break
		}
		if cr.probe != nil && c == 0 && i%cr.probeEvery == cr.probeEvery-1 {
			cr.probe(i/cr.probeEvery, r, sb, out)
		}
		read, k := st.next()
		req := uint64(c)<<48 | uint64(i)
		out.attempted++
		if read {
			t0 := time.Now()
			v, err := be.get(buf[:0], l.keys[k], sb, req)
			d := time.Since(t0)
			if err == nil {
				err = l.check(c, k, v)
			}
			if err != nil {
				out.fail("client %d read %q: %v", c, l.keys[k], err)
				continue
			}
			buf = v[:0]
			if r != nil {
				r.read.Add(d)
			}
		} else {
			k = ownedKey(k, c, len(l.keys))
			l.seq[c]++
			val = appendValue(val[:0], l.keys[k], uint16(c), l.seq[c])
			t0 := time.Now()
			err := be.put(l.keys[k], val, sb, req)
			d := time.Since(t0)
			if err != nil {
				out.fail("client %d write %q: %v", c, l.keys[k], err)
				continue
			}
			l.acked[k] = l.seq[c]
			l.lastKey[c] = k
			l.recent[c] = append(l.recent[c], k)
			l.userBytes[c] += int64(len(l.keys[k]) + len(val))
			if r != nil {
				r.write.Add(d)
			}
		}
		done++
	}
	return done
}

// verifyAcked reads back, through be, every key client c owns whose
// write was acknowledged.
func verifyAcked(c int, be backend, l *ledger, out *outcome) {
	var buf []byte
	for k, seq := range l.acked {
		if seq == 0 || owner(k) != c {
			continue
		}
		out.attempted++
		v, err := be.get(buf[:0], l.keys[k], nil, 0)
		if err == nil {
			err = l.check(c, k, v)
		}
		if err != nil {
			out.fail("read-back of acknowledged %q: %v", l.keys[k], err)
			continue
		}
		buf = v[:0]
	}
}

// verifyAll scans the whole index once and checks every entry against
// the ledger as its owner would: every preloaded key present exactly
// once, no other key, every value intact and as last acknowledged.
func verifyAll(ix *spf.Index, l *ledger, out *outcome) {
	seen := make([]bool, len(l.keys))
	err := ix.Scan(nil, nil, func(e spf.Entry) bool {
		out.attempted++
		k, ok := keyIndex(e.Key)
		switch {
		case !ok || k >= len(seen):
			out.fail("scan found unknown key %q", e.Key)
		case seen[k]:
			out.fail("scan found key %q twice", e.Key)
		default:
			seen[k] = true
			if err := l.check(owner(k), k, e.Value); err != nil {
				out.fail("scan: %v", err)
			}
		}
		return true
	})
	if err != nil {
		out.fail("scan: %v", err)
	}
	for k, ok := range seen {
		if !ok {
			out.attempted++
			out.fail("scan missed key %q", l.keys[k])
		}
	}
}
