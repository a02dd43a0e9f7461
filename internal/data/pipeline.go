package data

import (
	"sync"
)

// Pipeline is a real concurrent input pipeline: decode workers prepare
// mini-batches in parallel with training and hand them over through
// bounded prefetch queues — the host-side machinery whose cost and overlap
// behaviour the simulator models (§3.4, Figure 7) and whose throughput
// impact Observation 13's single-machine analogue describes. Each worker
// has its own queue, and the k-th Next takes from worker k mod workers, so
// batches are delivered in submission order and training remains
// deterministic for a fixed seed whatever the worker count.
//
// Batches are recycled, the same rule layers follow for their outputs: a
// batch from Next is valid until the following Next, which hands it back
// to its worker to be refilled in place. A warmed pipeline allocates
// nothing.
type Pipeline struct {
	workers []pipeWorker
	quit    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	// Consumer state, touched only by Next: how many batches it has
	// taken, and the last one with the worker it came from.
	taken  int
	held   ImageBatch
	heldBy *pipeWorker
}

// pipeWorker is one worker's queue of filled batches and its free list of
// batches the consumer is done with.
type pipeWorker struct {
	batches, free chan ImageBatch
}

// NewImagePipeline starts workers goroutines generating n-sample batches
// from independent per-worker sources built by makeSource (called once
// per worker with a distinct worker id; give each a distinct RNG seed for
// deterministic, non-duplicated streams). prefetch bounds the queued
// batches, split across the workers' queues as evenly as it divides.
func NewImagePipeline(workers, prefetch, n int, makeSource func(worker int) *ImageSource) *Pipeline {
	if workers <= 0 || prefetch <= 0 || n <= 0 {
		panic("data: pipeline needs positive workers, prefetch, and batch size")
	}
	p := &Pipeline{
		workers: make([]pipeWorker, workers),
		quit:    make(chan struct{}),
	}
	for k := range p.workers {
		depth := prefetch / workers
		if k < prefetch%workers {
			depth++
		}
		// A worker owns at most depth queued batches, one it is filling and
		// one the consumer holds, so a return to the free list never blocks.
		w := pipeWorker{
			batches: make(chan ImageBatch, depth),
			free:    make(chan ImageBatch, depth+2),
		}
		p.workers[k] = w
		src := makeSource(k)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				var b ImageBatch
				select {
				case b = <-w.free:
					src.fill(b)
				default:
					b = src.Batch(n)
				}
				select {
				case w.batches <- b:
				case <-p.quit:
					return
				}
			}
		}()
	}
	return p
}

// Next returns the next batch in submission order, blocking until its
// worker has it ready, and gives the batch it returned before back to
// that batch's worker. Call it from one goroutine. After Close it returns
// the zero ImageBatch immediately.
func (p *Pipeline) Next() ImageBatch {
	if p.held.X != nil {
		p.heldBy.free <- p.held
	}
	p.heldBy = &p.workers[p.taken%len(p.workers)]
	p.taken++
	p.held = <-p.heldBy.batches
	return p.held
}

// Close stops the workers and drains their queues. It blocks until every
// worker has exited, is idempotent, and is safe to call from multiple
// goroutines concurrently (later calls wait for the first to finish).
func (p *Pipeline) Close() {
	p.once.Do(func() {
		close(p.quit)
		p.wg.Wait()
		for _, w := range p.workers {
			close(w.batches)
			for range w.batches {
			}
		}
	})
}
