package data

import (
	"runtime"
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
	deadline := time.Now().Add(5 * time.Second)
	for len(p.batches) < cap(p.batches) {
		if time.Now().After(deadline) {
			t.Fatalf("prefetch queue never filled: %d/%d", len(p.batches), cap(p.batches))
		}
		time.Sleep(time.Millisecond)
	}
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
