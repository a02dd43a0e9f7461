package dist

import (
	"errors"
	"math"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// ringRecvBytes is what rank 0 of an n-rank ring reads in one round over
// l elements under comp.
func ringRecvBytes(n, l int, comp Compression) int {
	total := 0
	for h := 0; h < 2*(n-1); h++ {
		c := ringMod(-h-1, n)
		elems := chunkOff(c+1, l, n) - chunkOff(c, l, n)
		switch {
		case h >= n-1:
			total += 4 * elems
		case comp == CompressInt8:
			total += 4 + elems
		default:
			total += comp.WireBytesPerElem() * elems
		}
	}
	return total
}

// FuzzRingRecv runs one rank's receive loop — rank 0 of a ring of 2 to 4,
// all-reducing up to four pieces' worth of elements — over arbitrary fp32,
// fp16 or int8 bytes from its previous rank, which hangs up at a fuzzed
// offset. The round must not panic, must name a stream cut short and only
// a short one, must decode through at most one piece of scratch, and must
// return within 10 s of the hang-up.
func FuzzRingRecv(f *testing.F) {
	f.Add(uint8(CompressNone), uint8(0), uint16(ringPiece+3), uint32(1<<31), []byte{0, 0, 0x80, 0x3f})
	f.Add(uint8(CompressNone), uint8(0), uint16(3*ringPiece), uint32(4*ringPiece+6), []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add(uint8(CompressFP16), uint8(1), uint16(2*ringPiece+1), uint32(ringPiece+1), []byte{0x00, 0x7c})
	f.Add(uint8(CompressInt8), uint8(2), uint16(5), uint32(2), []byte{0x7f, 0x80})
	f.Add(uint8(CompressInt8), uint8(0), uint16(0), uint32(0), []byte{})

	f.Fuzz(func(t *testing.T, comp, workers uint8, elems uint16, cut uint32, pattern []byte) {
		n, c, l := 2+int(workers%3), Compression(comp%3), int(elems)
		want := ringRecvBytes(n, l, c)
		stream := make([]byte, int(cut%uint32(want+1)))
		for i := range stream {
			if len(pattern) > 0 {
				stream[i] = pattern[i%len(pattern)]
			}
		}
		grew := uint64(math.MaxUint64)
		for range windows {
			r := newRingEnd(0, n, c)
			next, sink := net.Pipe()
			prev, peer := net.Pipe()
			r.setNext(next, 0)
			r.setPrev(prev)
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				buf := make([]byte, 32<<10)
				for {
					if _, err := sink.Read(buf); err != nil {
						return
					}
				}
			}()
			flat := make([]float32, l)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			done := make(chan error, 1)
			go func() { done <- r.AllReduce(flat) }()
			_ = peer.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if len(stream) > 0 { // a pipe blocks even an empty write until a read
				if _, err := peer.Write(stream); errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatal("receive loop neither read nor failed for 10 s")
				}
			}
			peer.Close()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("round still running 10 s after its previous rank hung up")
			}
			runtime.ReadMemStats(&after)
			r.Close()
			<-drained

			if short := len(stream) < want; short != errors.Is(err, errRingCut) || !short && err != nil {
				t.Fatalf("%d ranks, %s, %d elements: %d of %d bytes arrived, round returned %v", n, c, l, len(stream), want, err)
			}
			if scratch := 4*cap(r.recvBuf.f32) + cap(r.recvBuf.bytes); scratch > 4*ringPiece {
				t.Fatalf("decode scratch %d bytes, more than one %d-byte piece", scratch, 4*ringPiece)
			}
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		// The decode scratch, the writer's fp16 frame of one piece, the int8
		// residual and levels, which this rank's own vector sizes, and slack
		// for what the fuzzing engine allocates meanwhile. Nothing is sized
		// from the wire.
		limit := uint64(4*ringPiece + 2*ringPiece + 5*l + 1<<20)
		if grew > limit {
			t.Fatalf("%d ranks, %s, %d elements: the round allocated %d bytes, limit %d", n, c, l, grew, limit)
		}
	})
}
