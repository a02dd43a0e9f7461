package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"tbd/internal/prof"
)

// A TCP ring all-reduce for data-parallel SGD (the NCCL-style
// alternative to the parameter server, §4.5): N workers arranged in a
// ring exchange gradient chunks in two phases — a reduce-scatter that
// leaves each rank with one fully reduced chunk, then an all-gather
// that circulates the reduced chunks to everyone. Each rank moves
// 2*(N-1)/N of the gradient per round regardless of N, with no central
// bottleneck.
//
// Determinism discipline (extending the worker pool's fixed-order
// reductions): chunk boundaries are a pure function of (length, N), the
// hop order is fixed by rank topology, every partial sum accumulates as
// local += received, and the all-gather ships exact fp32 bytes. A run
// with the same seed and worker count therefore reproduces bit-identical
// weights, and all N workers always finish a round with identical bytes.
//
// Compression (fp16 or error-feedback int8) applies to the
// reduce-scatter hops only — those carry gradient contributions, where
// quantization is a well-understood lever. All-gather hops stay fp32:
// they broadcast the *result*, and re-quantizing it per hop would give
// each worker a different number of rounding passes and break the
// cross-worker bit-identity the verification hash relies on.
//
// A training rank (worker.go) runs the phases apart: ReduceScatter of the
// flat gradients, SGD on its Owned chunk, AllGather of the flat weights —
// ZeRO stage 1's sharded update, exact because SGD is elementwise.

// ringHandshakeTimeout bounds connection setup.
const ringHandshakeTimeout = 10 * time.Second

// RingConfig describes one rank's place in the ring.
type RingConfig struct {
	Rank    int
	Workers int
	// Compression selects the reduce-scatter wire encoding.
	Compression Compression
	// BytesPerSec throttles this rank's egress link (0 = unthrottled).
	// Ingress is paced by the previous rank's egress, so each rank
	// models one full-duplex NIC of the given speed.
	BytesPerSec float64
}

// Ring is one rank's endpoint pair in an N-worker ring. Between
// ReduceScatter and AllGather only the rank's Owned chunk is fully
// reduced; every other chunk holds a partial sum.
type Ring struct {
	rank, n int
	comp    Compression

	nextConn  net.Conn      // dialed to rank+1 (owned, closed by Close)
	prevConn  net.Conn      // accepted from rank-1 (owned, closed by Close)
	nextCount *countingConn // wire accounting on the egress conn
	prevCount *countingConn // wire accounting on the ingress conn
	next      *bufio.Writer
	prev      *bufio.Reader

	quant   *Int8Quantizer // lazily sized at the first ReduceScatter
	sendBuf wireBuf        // used only by the per-step send goroutine
	recvBuf wireBuf        // used only by the receive side
	qbuf    []byte         // int8 scratch, send side
}

// NewRing connects rank cfg.Rank into the ring: it dials the next
// rank's listener at nextAddr and accepts one connection from the
// previous rank on l. All ranks must have their listeners up before any
// NewRing is called (the coordinator exchanges addresses first), and
// the N calls must run concurrently — each blocks until its neighbours
// arrive. A 1-worker ring needs no connections and reduces nothing.
func NewRing(l net.Listener, nextAddr string, cfg RingConfig) (*Ring, error) {
	if cfg.Workers <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Workers {
		return nil, fmt.Errorf("dist: invalid ring position rank %d of %d", cfg.Rank, cfg.Workers)
	}
	r := &Ring{rank: cfg.Rank, n: cfg.Workers, comp: cfg.Compression}
	if r.n == 1 {
		return r, nil
	}

	// Dial the next rank. The peer's listener exists, but allow a grace
	// window for slow process starts.
	var conn net.Conn
	var err error
	for deadline := time.Now().Add(ringHandshakeTimeout); ; {
		conn, err = net.Dial("tcp", nextAddr)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d dial next at %s: %w", cfg.Rank, nextAddr, err)
	}
	// Identify ourselves so the acceptor can verify ring order.
	var hs [4]byte
	binary.LittleEndian.PutUint32(hs[:], uint32(cfg.Rank))
	if err := conn.SetDeadline(time.Now().Add(ringHandshakeTimeout)); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(hs[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: rank %d handshake to next: %w", cfg.Rank, err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, err
	}
	r.nextConn = conn
	r.nextCount = newCountingConn(conn)
	r.next = bufio.NewWriterSize(Throttle(r.nextCount, cfg.BytesPerSec), 64<<10)

	// Accept the previous rank.
	if tl, ok := l.(*net.TCPListener); ok {
		if err := tl.SetDeadline(time.Now().Add(ringHandshakeTimeout)); err != nil {
			r.Close()
			return nil, err
		}
	}
	pconn, err := l.Accept()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("dist: rank %d accept prev: %w", cfg.Rank, err)
	}
	if err := pconn.SetDeadline(time.Now().Add(ringHandshakeTimeout)); err != nil {
		pconn.Close()
		r.Close()
		return nil, err
	}
	if _, err := io.ReadFull(pconn, hs[:]); err != nil {
		pconn.Close()
		r.Close()
		return nil, fmt.Errorf("dist: rank %d read prev handshake: %w", cfg.Rank, err)
	}
	wantPrev := ringMod(cfg.Rank-1, cfg.Workers)
	if got := int(binary.LittleEndian.Uint32(hs[:])); got != wantPrev {
		pconn.Close()
		r.Close()
		return nil, fmt.Errorf("dist: rank %d accepted rank %d, want %d — ring mis-wired", cfg.Rank, got, wantPrev)
	}
	if err := pconn.SetDeadline(time.Time{}); err != nil {
		pconn.Close()
		r.Close()
		return nil, err
	}
	r.prevConn = pconn
	r.prevCount = newCountingConn(pconn)
	r.prev = bufio.NewReaderSize(r.prevCount, 64<<10)
	return r, nil
}

// Rank returns this endpoint's ring position.
func (r *Ring) Rank() int { return r.rank }

// Workers returns the ring size.
func (r *Ring) Workers() int { return r.n }

// WireBytes returns cumulative (in, out) payload bytes this rank moved.
func (r *Ring) WireBytes() (in, out int64) {
	if r.n == 1 {
		return 0, 0
	}
	in, _ = r.prevCount.Bytes()
	_, out = r.nextCount.Bytes()
	return in, out
}

// Close tears down both ring connections.
func (r *Ring) Close() error {
	var first error
	if r.nextConn != nil {
		first = r.nextConn.Close()
	}
	if r.prevConn != nil {
		if err := r.prevConn.Close(); first == nil {
			first = err
		}
	}
	return first
}

// ringMod is the non-negative modulus for ring index arithmetic.
func ringMod(i, n int) int { return ((i % n) + n) % n }

// chunkOff returns chunk c's start offset in a flat vector of l scalars
// split into n near-equal chunks.
func chunkOff(c, l, n int) int { return c * l / n }

// Owned returns the range [lo, hi) of a flat vector of l scalars that
// this rank holds fully reduced after ReduceScatter: chunk rank+1, the one
// its last reduce-scatter hop completes and its first all-gather hop
// sends. The range is empty when l < Workers leaves that chunk empty.
func (r *Ring) Owned(l int) (lo, hi int) {
	c := ringMod(r.rank+1, r.n)
	return chunkOff(c, l, r.n), chunkOff(c+1, l, r.n)
}

// AllReduce replaces flat with the element-wise average over all N
// workers: ReduceScatter, the owned chunk scaled by 1/N, AllGather. Every
// worker must call it with the same length each round; all workers return
// with byte-identical contents. The reduction order is fixed by the ring
// topology, so repeated runs are bit-identical too.
func (r *Ring) AllReduce(flat []float32) error {
	if err := r.ReduceScatter(flat); err != nil {
		return err
	}
	r.averageOwned(flat)
	return r.AllGather(flat)
}

// averageOwned scales the owned chunk of a reduce-scattered vector by
// 1/N. Only the owner multiplies; the all-gather ships its bytes to
// everyone else.
func (r *Ring) averageOwned(flat []float32) {
	if r.n == 1 {
		return
	}
	lo, hi := r.Owned(len(flat))
	inv := 1 / float32(r.n)
	owned := flat[lo:hi]
	for ; len(owned) >= 4; owned = owned[4:] { // unrolled: see readF32Add
		o := owned[:4:4]
		o[0] *= inv
		o[1] *= inv
		o[2] *= inv
		o[3] *= inv
	}
	for i := range owned {
		owned[i] *= inv
	}
}

// ReduceScatter sums flat across the ring in N-1 compressed hops. At hop s
// this rank sends chunk rank-s and adds the received chunk rank-s-1 into
// its local partial sum, so it returns with its Owned chunk holding the
// full sum and every other chunk a partial one.
func (r *Ring) ReduceScatter(flat []float32) error {
	if r.n == 1 {
		return nil
	}
	if r.comp == CompressInt8 {
		if r.quant == nil {
			r.quant = NewInt8Quantizer(len(flat))
		} else if len(r.quant.residual) != len(flat) {
			return fmt.Errorf("dist: reduce-scatter length changed from %d to %d", len(r.quant.residual), len(flat))
		}
	}
	return r.hops("comm.ring.reduce_scatter", flat, r.rank, r.sendReduce, r.recvReduceAdd)
}

// AllGather circulates every rank's Owned chunk in N-1 exact fp32 hops: at
// hop s this rank sends chunk rank+1-s and overwrites chunk rank-s with the
// received bytes, so every rank returns holding each owner's bytes.
func (r *Ring) AllGather(flat []float32) error {
	if r.n == 1 {
		return nil
	}
	return r.hops("comm.ring.all_gather", flat, r.rank+1, r.sendRaw, r.recvRaw)
}

// hops runs the N-1 hops of one ring phase under one comm span: at hop s
// this rank sends chunk first-s and receives chunk first-s-1. Send and
// receive run concurrently (a blocking write around a full ring would
// deadlock once chunks outgrow socket buffers). Every return ends the span.
func (r *Ring) hops(name string, flat []float32, first int, send func(vals []float32, off int) error, recv func(dst []float32) error) error {
	in0, out0 := r.WireBytes()
	sp := prof.Begin(prof.CatComm, name)
	defer sp.End()
	l := len(flat)
	for s := 0; s < r.n-1; s++ {
		sc, rc := ringMod(first-s, r.n), ringMod(first-s-1, r.n)
		so, se := chunkOff(sc, l, r.n), chunkOff(sc+1, l, r.n)
		errc := make(chan error, 1)
		go func(vals []float32, off int) {
			errc <- send(vals, off)
		}(flat[so:se], so)
		recvErr := recv(flat[chunkOff(rc, l, r.n):chunkOff(rc+1, l, r.n)])
		if sendErr := <-errc; sendErr != nil || recvErr != nil {
			return fmt.Errorf("dist: rank %d %s hop %d: send %v, recv %v", r.rank, name, s, sendErr, recvErr)
		}
	}
	in1, out1 := r.WireBytes()
	sp.SetBytes((in1 - in0) + (out1 - out0))
	return nil
}

// sendReduce frames one reduce-scatter chunk under the configured
// compression and flushes it. off is the chunk's offset in the flat
// vector (the int8 quantizer's residual index).
func (r *Ring) sendReduce(vals []float32, off int) error {
	var err error
	switch r.comp {
	case CompressFP16:
		err = r.sendBuf.writeF16(r.next, vals)
	case CompressInt8:
		if cap(r.qbuf) < len(vals) {
			r.qbuf = make([]byte, len(vals))
		}
		q := r.qbuf[:len(vals)]
		scale := r.quant.QuantizeAt(off, vals, q)
		err = r.sendBuf.writeInt8(r.next, scale, q)
	default:
		err = r.sendBuf.writeF32(r.next, vals)
	}
	if err != nil {
		return err
	}
	return r.next.Flush()
}

// recvReduceAdd reads one reduce-scatter chunk and adds it into dst.
func (r *Ring) recvReduceAdd(dst []float32) error {
	switch r.comp {
	case CompressFP16:
		return r.recvBuf.readF16Add(r.prev, dst)
	case CompressInt8:
		return r.recvBuf.readInt8Add(r.prev, dst)
	default:
		return r.recvBuf.readF32Add(r.prev, dst)
	}
}

// sendRaw frames one all-gather chunk (always fp32) and flushes it.
func (r *Ring) sendRaw(vals []float32, _ int) error {
	if err := r.sendBuf.writeF32(r.next, vals); err != nil {
		return err
	}
	return r.next.Flush()
}

// recvRaw reads one all-gather chunk over dst.
func (r *Ring) recvRaw(dst []float32) error { return r.recvBuf.readF32(r.prev, dst) }

// NewLocalRings wires an n-worker ring inside one process over real
// localhost TCP — the builder tests, benchmarks, and the throttled
// scaling experiments share. Each returned Ring belongs to one
// goroutine-worker; ranks match slice indices.
func NewLocalRings(n int, comp Compression, bytesPerSec float64) ([]*Ring, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, err
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	rings := make([]*Ring, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(rank int) {
			rings[rank], errs[rank] = NewRing(listeners[rank], addrs[(rank+1)%n], RingConfig{
				Rank: rank, Workers: n, Compression: comp, BytesPerSec: bytesPerSec,
			})
			done <- rank
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for _, l := range listeners {
		l.Close()
	}
	for _, err := range errs {
		if err != nil {
			for _, r := range rings {
				if r != nil {
					r.Close()
				}
			}
			return nil, err
		}
	}
	return rings, nil
}
