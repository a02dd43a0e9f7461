package data

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tbd/internal/tensor"
)

func TestPipelineDeliversBatches(t *testing.T) {
	p := NewImagePipeline(3, 4, 8, func(w int) *ImageSource {
		return NewImageSource(tensor.NewRNG(uint64(w)+1), 1, 4, 4, 2, 0.2)
	})
	defer p.Close()
	for i := 0; i < 20; i++ {
		b := p.Next()
		if b.X.Dim(0) != 8 || len(b.Labels) != 8 {
			t.Fatalf("batch %d malformed: %v / %d labels", i, b.X.Shape(), len(b.Labels))
		}
	}
}

func TestPipelineCloseIsIdempotentAndPrompt(t *testing.T) {
	p := NewImagePipeline(2, 2, 4, func(w int) *ImageSource {
		return NewImageSource(tensor.NewRNG(uint64(w)+9), 1, 4, 4, 2, 0.2)
	})
	p.Next()
	done := make(chan struct{})
	go func() {
		p.Close()
		p.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline close hung")
	}
}

func TestPipelinePrefetchOverlapsConsumer(t *testing.T) {
	// After the consumer idles, the prefetch queue should be full, so the
	// next few batches arrive without waiting on generation.
	p := NewImagePipeline(2, 8, 16, func(w int) *ImageSource {
		return NewImageSource(tensor.NewRNG(uint64(w)+3), 1, 8, 8, 4, 0.2)
	})
	defer p.Close()
	p.Next()
	time.Sleep(50 * time.Millisecond) // let workers fill the queue
	start := time.Now()
	for i := 0; i < 8; i++ {
		p.Next()
	}
	if elapsed := time.Since(start); elapsed > 25*time.Millisecond {
		t.Fatalf("draining a full prefetch queue took %v", elapsed)
	}
}

func TestPipelineValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero workers must panic")
		}
	}()
	NewImagePipeline(0, 1, 1, nil)
}

func TestPipelineCloseWithFullPrefetchQueue(t *testing.T) {
	// The shutdown race the quit channel exists for: every worker blocked
	// on a send into a full prefetch queue, with no consumer to make room.
	// Close must still unblock and join all of them.
	p := NewImagePipeline(4, 2, 4, func(w int) *ImageSource {
		return NewImageSource(tensor.NewRNG(uint64(w)+21), 1, 4, 4, 2, 0.2)
	})
	waitQueuesFull(t, p)
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked with a full prefetch queue")
	}
}

// waitQueuesFull waits until every worker's prefetch queue is full. prefetch
// is the total over the queues; a worker whose share is zero is blocked
// sending its one filled batch.
func waitQueuesFull(t *testing.T, p *Pipeline) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		queued, capacity := 0, 0
		for _, w := range p.workers {
			queued += len(w.batches)
			capacity += cap(w.batches)
		}
		if queued == capacity {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetch queues never filled: %d/%d", queued, capacity)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPipelineDeliversInSubmissionOrder(t *testing.T) {
	// Batch k comes from worker k mod 3, whatever order the workers finish
	// in, so two pipelines over the same seeds agree batch for batch — and
	// with the workers' sources drawn round-robin on one goroutine.
	const workers, n, batches = 3, 4, 50
	source := func(w int) *ImageSource {
		return NewImageSource(tensor.NewRNG(uint64(w)+61), 1, 4, 4, 10, 0.2)
	}
	refs := make([]*ImageSource, workers)
	for w := range refs {
		refs[w] = source(w)
	}
	p1 := NewImagePipeline(workers, 4, n, source)
	defer p1.Close()
	p2 := NewImagePipeline(workers, 4, n, source)
	defer p2.Close()
	for k := 0; k < batches; k++ {
		want := refs[k%workers].Batch(n)
		for i, p := range []*Pipeline{p1, p2} {
			b := p.Next()
			if !slices.Equal(b.Labels, want.Labels) || !slices.Equal(b.X.Data(), want.X.Data()) {
				t.Fatalf("pipeline %d batch %d: labels %v, want worker %d's next batch %v", i+1, k, b.Labels, k%workers, want.Labels)
			}
		}
	}
}

func TestPipelineHeldBatchSurvivesFullQueue(t *testing.T) {
	// A batch from Next stays intact while the workers refill every batch
	// they own, until the following Next hands it back.
	p := NewImagePipeline(2, 2, 8, func(w int) *ImageSource {
		return NewImageSource(tensor.NewRNG(uint64(w)+71), 1, 4, 4, 10, 0.5)
	})
	defer p.Close()
	for i := 0; i < 5; i++ {
		p.Next() // every batch the workers own has been recycled once
	}
	b := p.Next()
	x, labels := slices.Clone(b.X.Data()), slices.Clone(b.Labels)
	waitQueuesFull(t, p)
	time.Sleep(20 * time.Millisecond) // let each worker fill the batch it will block sending
	if !slices.Equal(b.X.Data(), x) || !slices.Equal(b.Labels, labels) {
		t.Fatal("the held batch changed before the following Next")
	}
}

func TestPipelineNoGoroutineLeakAfterClose(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewImagePipeline(6, 3, 4, func(w int) *ImageSource {
		return NewImageSource(tensor.NewRNG(uint64(w)+31), 1, 4, 4, 2, 0.2)
	})
	for i := 0; i < 5; i++ {
		p.Next()
	}
	p.Close()
	// Close joins the workers, but exiting goroutines may need a beat to
	// be reaped from the scheduler's count.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close = %d, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPipelineConcurrentClose(t *testing.T) {
	p := NewImagePipeline(3, 2, 4, func(w int) *ImageSource {
		return NewImageSource(tensor.NewRNG(uint64(w)+41), 1, 4, 4, 2, 0.2)
	})
	p.Next()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Close calls did not all return")
	}
}

func TestPipelineNextAfterClose(t *testing.T) {
	p := NewImagePipeline(2, 2, 4, func(w int) *ImageSource {
		return NewImageSource(tensor.NewRNG(uint64(w)+51), 1, 4, 4, 2, 0.2)
	})
	p.Close()
	done := make(chan ImageBatch, 1)
	go func() { done <- p.Next() }()
	select {
	case b := <-done:
		if b.X != nil || b.Labels != nil {
			t.Fatalf("Next after Close = %+v, want zero batch", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next blocked after Close")
	}
}
