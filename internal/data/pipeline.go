package data

import (
	"sync"
)

// Pipeline is a real concurrent input pipeline: decode workers prepare
// mini-batches in parallel with training and hand them over through a
// bounded prefetch queue — the host-side machinery whose cost and overlap
// behaviour the simulator models (§3.4, Figure 7) and whose throughput
// impact Observation 13's single-machine analogue describes. Batches are
// delivered in submission order so training remains deterministic for a
// fixed seed.
type Pipeline struct {
	batches chan ImageBatch
	quit    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
}

// NewImagePipeline starts workers goroutines generating n-sample batches
// from independent per-worker sources built by makeSource (called once
// per worker with a distinct worker id; give each a distinct RNG seed for
// deterministic, non-duplicated streams). prefetch bounds the queue.
func NewImagePipeline(workers, prefetch, n int, makeSource func(worker int) *ImageSource) *Pipeline {
	if workers <= 0 || prefetch <= 0 || n <= 0 {
		panic("data: pipeline needs positive workers, prefetch, and batch size")
	}
	p := &Pipeline{
		batches: make(chan ImageBatch, prefetch),
		quit:    make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		src := makeSource(w)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				b := src.Batch(n)
				select {
				case p.batches <- b:
				case <-p.quit:
					return
				}
			}
		}()
	}
	return p
}

// Next blocks until a prefetched batch is available. After Close it
// returns the zero ImageBatch immediately.
func (p *Pipeline) Next() ImageBatch { return <-p.batches }

// Close stops the workers and drains the queue. It blocks until every
// worker has exited, is idempotent, and is safe to call from multiple
// goroutines concurrently (later calls wait for the first to finish).
func (p *Pipeline) Close() {
	p.once.Do(func() {
		close(p.quit)
		p.wg.Wait()
		close(p.batches)
		for range p.batches {
		}
	})
}
