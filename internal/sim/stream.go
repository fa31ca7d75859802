package sim

// The filtered stream, which every generate+filter pass goes through:
// the fan-out drive, CompareLLC, each core of RunMulticore, and the
// prefetch and victim experiments (FilterStream). The private levels
// never read LLC or timing state, so a producer goroutine can generate
// and filter a core's reference stream ahead of whatever consumes it.

import (
	"runtime/debug"

	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/trace"
)

// streamShape sizes a stream's blocks and ring.
type streamShape struct {
	block  int  // accesses generated per block
	ring   int  // blocks in flight between producer and consumer
	gather bool // collect each block's LLC-bound subsequence
}

var (
	// laneShape feeds batched LLC replay: one being filtered, one
	// queued, one being replayed.
	laneShape = streamShape{block: genBatch, ring: 3, gather: true}
	// recordShape feeds a per-record LLC leg, which reads the
	// filtered records alone.
	recordShape = streamShape{block: genBatch, ring: 3}
	// mixShape feeds a multicore merge, which pulls one record at a
	// time from four streams and so wants large blocks.
	mixShape = streamShape{block: mcChunk, ring: mcBuffers}
)

// block is one block of a filtered stream: one record per generated
// access and, on a gathering stream, their LLC-bound subsequence
// (hier.GatherLLC).
type block struct {
	fb  []hier.Filtered
	llc []mem.Access
}

// stream is a reference stream filtered through one core's private
// L1/L2 levels. Its producer goroutine generates, filters and gathers
// each block and hands it to the consumer through a fixed ring of
// blocks; the two sides own disjoint state and the channels order the
// handoff. A panic in the generator or the private levels ends the
// stream and is kept, with its stack, for stop to return.
type stream struct {
	// Producer side; the consumer may read core and err once stop has
	// returned.
	gen    trace.Generator
	core   *hier.Core
	gather bool
	as     []mem.Access
	err    *Panic

	full, free chan *block
	done       chan struct{} // closed by stop
	cur        *block        // the block the consumer holds
	stopped    bool
}

// newStream starts a stream over gen through a fresh core's private
// levels. The consumer must call stop, also when it panics.
func newStream(gen trace.Generator, shape streamShape) *stream {
	// Both channels can hold every block of the ring, so no send
	// blocks.
	s := &stream{
		gen:    gen,
		core:   hier.NewCore(hier.DefaultConfig(), nil),
		gather: shape.gather,
		as:     make([]mem.Access, shape.block),
		full:   make(chan *block, shape.ring),
		free:   make(chan *block, shape.ring),
		done:   make(chan struct{}),
	}
	blocks := make([]block, shape.ring)
	fbs := make([]hier.Filtered, shape.ring*shape.block)
	var llcs []mem.Access
	if shape.gather {
		llcs = make([]mem.Access, shape.ring*shape.block)
	}
	for i := range blocks {
		b := &blocks[i]
		lo, hi := i*shape.block, (i+1)*shape.block
		b.fb = fbs[lo:hi:hi]
		if shape.gather {
			b.llc = llcs[lo:lo:hi]
		}
		s.free <- b
	}
	go s.run()
	return s
}

// run is the producer goroutine: it fills free blocks into full until
// the stream ends, a fill panics or stop is called, and always closes
// full.
func (s *stream) run() {
	defer close(s.full)
	for {
		var b *block
		select {
		case b = <-s.free:
		case <-s.done:
			return
		}
		if !s.fill(b) {
			return
		}
		s.full <- b // never blocks: full can hold every block
	}
}

// fill generates, filters and gathers the next block; false at the end
// of the stream or on a panic, which it records in s.err.
func (s *stream) fill(b *block) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.err = &Panic{Value: r, Stack: string(debug.Stack())}
			ok = false
		}
	}()
	n := s.gen.NextBatch(s.as)
	if n == 0 {
		return false
	}
	b.fb = b.fb[:n]
	s.core.FilterBlock(s.as[:n], b.fb)
	if s.gather {
		b.llc = hier.GatherLLC(b.llc[:0], b.fb)
	}
	return true
}

// next returns the stream's next block, handing the previous one back
// to the producer, or nil once the stream has ended.
func (s *stream) next() *block {
	if s.cur != nil {
		s.free <- s.cur // never blocks: free can hold every block
	}
	s.cur = <-s.full
	return s.cur
}

// stop ends the stream, early or not, and waits for the producer to
// exit, which publishes its state to the consumer. It returns the
// producer's panic, if one ended the stream; calls after the first do
// nothing. Only the consumer calls it.
func (s *stream) stop() *Panic {
	if s.stopped {
		return nil
	}
	s.stopped = true
	close(s.done)
	for range s.full {
	}
	return s.err
}

// each hands fn the stream's blocks in order until the stream ends or
// fn returns false, then stops the stream and re-raises a producer
// panic in the caller.
func (s *stream) each(fn func(*block) bool) {
	defer s.stop()
	for b := s.next(); b != nil && fn(b); b = s.next() {
	}
	if p := s.stop(); p != nil {
		panic(p)
	}
}

// FilterStream runs gen's stream through a fresh core's private L1/L2
// levels and calls fn with each block's filtered records, in stream
// order, for a caller whose LLC leg goes one record at a time. The
// stream's producer goroutine runs ahead of fn; a panic there is
// re-raised in the caller as a *Panic carrying the original stack.
func FilterStream(gen trace.Generator, fn func(fb []hier.Filtered)) {
	newStream(gen, recordShape).each(func(b *block) bool {
		fn(b.fb)
		return true
	})
}
