package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span names. The traced run wraps the benchmark's own calls into each
// layer's public functions; nothing inside the engine is instrumented.
const (
	spanWireGet    = "wire.get"      // server.Client.Get
	spanWirePut    = "wire.put"      // server.Client.Put
	spanOpGet      = "op.get"        // one in-process read
	spanOpPut      = "op.put"        // one in-process update transaction
	spanEngineGet  = "engine.get"    // spf.Index.GetTo
	spanEngineUpd  = "engine.update" // spf.Index.Update / Insert
	spanCommit     = "wal.commit"    // spf.DB.Commit
	spanProbe      = "probe"         // one evict / inject / fetch probe
	spanFetch      = "buffer.fetch"  // spf.DB.Fetch + Release
	spanCheckpoint = "recovery.checkpoint"
	spanBackup     = "backup.now"
	spanRestart    = "recovery.restart"
	spanFirstRead  = "restart.first_read"
	spanDrain      = "restore.drain"
)

// span is one timed call. Parent indexes the same spanBuf (-1 for a
// root); req ties a span to the request that caused it.
type span struct {
	name       string
	start, end int64 // ns since the tracer epoch
	parent     int32
	req        uint64
}

// spanBuf is one goroutine's span log. A nil *spanBuf records nothing,
// which is how the untraced run pays only a nil check per call site.
type spanBuf struct {
	epoch time.Time
	spans []span
}

// begin opens a span and returns its handle (-1 when not tracing).
func (b *spanBuf) begin(name string, parent int32, req uint64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), parent: parent, req: req})
	return int32(len(b.spans) - 1)
}

// end closes the span opened by begin.
func (b *spanBuf) end(i int32) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].end = int64(time.Since(b.epoch))
}

// tracer owns the span logs of one traced run.
type tracer struct {
	epoch time.Time
	logs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// bufs hands out n fresh span logs, one per goroutine that will use
// them.
func (t *tracer) bufs(n int) []*spanBuf {
	out := make([]*spanBuf, n)
	for i := range out {
		out[i] = &spanBuf{epoch: t.epoch}
	}
	t.logs = append(t.logs, out...)
	return out
}

// selfTimes computes each span's self time (its duration minus its
// children's) and returns them grouped by span name.
func (t *tracer) selfTimes() map[string]*Recorder {
	out := make(map[string]*Recorder)
	for _, b := range t.logs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			r := out[s.name]
			if r == nil {
				r = &Recorder{}
				out[s.name] = r
			}
			r.Add(time.Duration(s.end - s.start - child[i]))
		}
	}
	return out
}

// spansPerNameWritten caps how many spans of each name the span file
// keeps; the per-layer figures use every span, the file is for reading.
const spansPerNameWritten = 2000

// write dumps the spans as JSON lines into path, at most
// spansPerNameWritten per name.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	written := make(map[string]int)
	type line struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  string `json:"parent,omitempty"`
		Req     uint64 `json:"req"`
	}
	for _, b := range t.logs {
		for _, s := range b.spans {
			if written[s.name] >= spansPerNameWritten {
				continue
			}
			written[s.name]++
			l := line{Name: s.name, StartNS: s.start, EndNS: s.end, Req: s.req}
			if s.parent >= 0 {
				l.Parent = b.spans[s.parent].name
			}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
