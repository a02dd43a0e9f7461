package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
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
// A round is streamed, not run phase by phase. Each hop's chunk travels in
// pieces of ringPiece elements: the receive loop (the caller) reads a
// piece, folds it in (local += received on a reduce-scatter hop, an
// overwrite on an all-gather hop) and hands it to the round's one writer
// goroutine, which forwards it as the next hop's piece while the rest of
// the chunk is still arriving (sending from the receive loop would
// deadlock a full ring once a hop outgrows the socket buffers). The last
// reduce-scatter hop completes the rank's Owned chunk, and each of its
// pieces is scaled by 1/N, stepped by a training rank's SGD (worker.go:
// ZeRO stage 1's sharded update, exact because SGD is elementwise) and
// sent as the first all-gather piece. The bytes on each connection, their
// order and every float operation are those of the phase-by-phase round;
// only the waiting between them goes. An int8 reduce-scatter hop is still
// one message per chunk (its max-abs scale and error-feedback residual
// cover the chunk), so the writer forwards it once the whole chunk is in.

// ringHandshakeTimeout bounds connection setup.
const ringHandshakeTimeout = 10 * time.Second

// ringPiece is the streamed round's grain in elements: one throttle chunk
// of fp32.
const ringPiece = throttleChunk / 4

// errRingCut names a round whose incoming stream ended, or broke, before
// the round's bytes arrived.
var errRingCut = errors.New("ring stream cut short")

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

// Ring is one rank's endpoint pair in an N-worker ring. It runs one round
// at a time.
type Ring struct {
	rank, n int
	comp    Compression

	nextConn  net.Conn      // dialed to rank+1 (owned, closed by Close)
	prevConn  net.Conn      // accepted from rank-1 (owned, closed by Close)
	nextCount *countingConn // wire accounting on the egress conn
	prevCount *countingConn // wire accounting on the ingress conn
	next      *bufio.Writer // the writer's
	prev      *bufio.Reader // the receive loop's

	quant   *Int8Quantizer // lazily sized at the first round; the writer's
	sendBuf wireBuf        // the writer's
	recvBuf wireBuf        // the receive loop's: one piece of scratch
	qbuf    []byte         // int8 levels of one chunk, the writer's

	// A round's receive loop and its writer meet here.
	mu      sync.Mutex
	cond    *sync.Cond
	sends   []ringSend // the round's pieces in wire order; guarded by mu
	rsSends int        // how many of them are reduce-scatter pieces; guarded by mu
	sent    int        // how many of them the writer has sent; guarded by mu
	queued  bool       // every piece of the round is in sends; guarded by mu
	quit    bool       // the receive loop failed: the writer stops; guarded by mu
	wdone   bool       // the writer has returned; guarded by mu
	wrote   sync.WaitGroup
	werr    error // the writer's result, read after wrote.Wait
}

// ringSend is one piece for the writer: vals, which start at off in the
// flat vector, under enc.
type ringSend struct {
	vals []float32
	off  int
	enc  Compression
}

func newRingEnd(rank, n int, comp Compression) *Ring {
	r := &Ring{rank: rank, n: n, comp: comp}
	r.cond = sync.NewCond(&r.mu)
	return r
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
	r := newRingEnd(cfg.Rank, cfg.Workers, cfg.Compression)
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
	r.setNext(conn, cfg.BytesPerSec)

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
	r.setPrev(pconn)
	return r, nil
}

// setNext makes conn the egress connection, throttled to bytesPerSec.
func (r *Ring) setNext(conn net.Conn, bytesPerSec float64) {
	r.nextConn = conn
	r.nextCount = newCountingConn(conn)
	r.next = bufio.NewWriterSize(Throttle(r.nextCount, bytesPerSec), 64<<10)
}

// setPrev makes conn the ingress connection.
func (r *Ring) setPrev(conn net.Conn) {
	r.prevConn = conn
	r.prevCount = newCountingConn(conn)
	r.prev = bufio.NewReaderSize(r.prevCount, 64<<10)
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
// this rank reduces in full: chunk rank+1, the one its last reduce-scatter
// hop completes and its first all-gather hop sends. The range is empty
// when l < Workers leaves that chunk empty.
func (r *Ring) Owned(l int) (lo, hi int) {
	c := ringMod(r.rank+1, r.n)
	return chunkOff(c, l, r.n), chunkOff(c+1, l, r.n)
}

// AllReduce replaces flat with the element-wise average over all N
// workers. Every worker must call it with the same length each round; all
// workers return with byte-identical contents. The reduction order is
// fixed by the ring topology, so repeated runs are bit-identical too.
func (r *Ring) AllReduce(flat []float32) error { return r.round(flat, flat, nil) }

// ringShard is a training rank's update of its Owned chunk: SGD over one
// view of the weights and gradients per piece, built once per run, so a
// round steps each piece as soon as it is reduced.
type ringShard struct {
	opt    *optim.SGD
	pieces []*layers.Param
}

// newShard builds this rank's shard of weights and grads, the flat buffers
// its rounds exchange.
func (r *Ring) newShard(weights, grads []float32, opt *optim.SGD) *ringShard {
	s := &ringShard{opt: opt}
	lo, hi := r.Owned(len(grads))
	for a := lo; a < hi; a += ringPiece {
		b := min(a+ringPiece, hi)
		s.pieces = append(s.pieces, &layers.Param{Name: "ring.shard",
			Value: tensor.FromSlice(weights[a:b], b-a), Grad: tensor.FromSlice(grads[a:b], b-a)})
	}
	return s
}

// round is the ring's one exchange. grads is reduce-scattered; the Owned
// chunk is averaged and, given a shard, stepped into the weights; then
// gather — grads itself for an all-reduce, the weights for a training
// rank — is all-gathered. It returns with every chunk of gather holding its
// owner's bytes, and grads holding the average on the Owned chunk and a
// partial sum elsewhere.
func (r *Ring) round(grads, gather []float32, shard *ringShard) error {
	if r.n == 1 {
		if shard != nil {
			shard.opt.Step(shard.pieces)
		}
		return nil
	}
	if r.comp == CompressInt8 {
		if r.quant == nil {
			r.quant = NewInt8Quantizer(len(grads))
		} else if len(r.quant.residual) != len(grads) {
			return fmt.Errorf("dist: ring round length changed from %d to %d", len(r.quant.residual), len(grads))
		}
	}
	r.mu.Lock()
	r.sends, r.sent, r.queued, r.quit, r.wdone = r.sends[:0], 0, false, false, false
	r.mu.Unlock()
	// One comm span covers the receive loop's reduce-scatter hops and one
	// the rest of the round, so their bytes add up to the round's.
	in0, out0 := r.WireBytes()
	sp := prof.Begin(prof.CatComm, "comm.ring.reduce_scatter")
	// The first hop sends this rank's own chunk, which is ready now.
	l := len(grads)
	r.forward(grads, chunkOff(r.rank, l, r.n), chunkOff(r.rank+1, l, r.n), r.comp)
	r.wrote.Add(1)
	go r.write()
	hops := r.n - 1
	err := r.receive(0, hops, grads, gather, shard)
	in1, out1 := r.WireBytes()
	sp.SetBytes((in1 - in0) + (out1 - out0))
	sp.End()
	sp = prof.Begin(prof.CatComm, "comm.ring.all_gather")
	if err == nil {
		err = r.receive(hops, 2*hops, grads, gather, shard)
	}
	if err != nil {
		r.mu.Lock()
		r.quit = true
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	r.wrote.Wait()
	in2, out2 := r.WireBytes()
	sp.SetBytes((in2 - in1) + (out2 - out1))
	sp.End()
	return errors.Join(err, r.werr)
}

// receive runs hops [from, to) of a round's receive side. Hop h folds in
// chunk rank-h-1, which is the chunk hop h+1 sends: each piece is read and
// added (reduce-scatter) or copied (all-gather), the Owned chunk's pieces
// are averaged and stepped, and each piece is queued for the writer as the
// next hop's.
func (r *Ring) receive(from, to int, grads, gather []float32, shard *ringShard) error {
	l, hops := len(grads), r.n-1
	inv := 1 / float32(r.n)
	for h := from; h < to; h++ {
		c := ringMod(r.rank-h-1, r.n)
		lo, hi := chunkOff(c, l, r.n), chunkOff(c+1, l, r.n)
		reduce, owned, forward := h < hops, h == hops-1, h < 2*hops-1
		dst, src, enc := grads, grads, r.comp // src, enc: what the next hop sends
		if !reduce {
			dst = gather
		}
		if h+1 >= hops {
			src, enc = gather, CompressNone
		}
		switch h {
		case hops - 1:
			r.mu.Lock()
			r.rsSends = len(r.sends)
			r.mu.Unlock()
		case hops:
			// The all-gather overwrites chunks the writer sent
			// reduce-scatter pieces from (an all-reduce gathers into grads):
			// the writer finishes those first.
			r.mu.Lock()
			for r.sent < r.rsSends && !r.wdone {
				r.cond.Wait()
			}
			r.mu.Unlock()
		}
		var scale float32
		var err error
		if reduce && r.comp == CompressInt8 {
			scale, err = r.recvBuf.readScale(r.prev)
		}
		for a := lo; a < hi && err == nil; a += ringPiece {
			b := min(a+ringPiece, hi)
			if err = r.recvPiece(dst[a:b], reduce, scale); err != nil {
				break
			}
			if owned {
				scaleF32(grads[a:b], inv)
				if shard != nil {
					k := (a - lo) / ringPiece
					shard.opt.Step(shard.pieces[k : k+1])
				}
			}
			if forward && enc != CompressInt8 {
				r.forward(src, a, b, enc)
			}
		}
		if err != nil {
			return fmt.Errorf("dist: rank %d round hop %d of %d: %w: %w", r.rank, h+1, 2*hops, errRingCut, err)
		}
		if forward && enc == CompressInt8 {
			r.forward(src, lo, hi, enc)
		}
		if h == 2*hops-2 {
			r.mu.Lock()
			r.queued = true
			r.cond.Broadcast()
			r.mu.Unlock()
		}
	}
	return nil
}

// recvPiece reads one piece over dst, or adds it into dst on a
// reduce-scatter hop (an int8 hop's scale was read before its first piece).
func (r *Ring) recvPiece(dst []float32, reduce bool, scale float32) error {
	if !reduce {
		return r.recvBuf.readF32(r.prev, dst)
	}
	switch r.comp {
	case CompressFP16:
		return r.recvBuf.readF16Add(r.prev, dst)
	case CompressInt8:
		return r.recvBuf.readLevelsAdd(r.prev, scale, dst)
	}
	return r.recvBuf.readF32Add(r.prev, dst)
}

// scaleF32 multiplies vals by k in place, unrolled by four for the reason
// readF32Add is.
func scaleF32(vals []float32, k float32) {
	for ; len(vals) >= 4; vals = vals[4:] {
		v := vals[:4:4]
		v[0] *= k
		v[1] *= k
		v[2] *= k
		v[3] *= k
	}
	for i := range vals {
		vals[i] *= k
	}
}

// forward queues [lo, hi) of vals for the writer under enc: as one int8
// message, or piece by piece.
func (r *Ring) forward(vals []float32, lo, hi int, enc Compression) {
	r.mu.Lock()
	if enc == CompressInt8 {
		r.sends = append(r.sends, ringSend{vals[lo:hi], lo, enc})
	} else {
		for a := lo; a < hi; a += ringPiece {
			b := min(a+ringPiece, hi)
			r.sends = append(r.sends, ringSend{vals[a:b], a, enc})
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// write is a round's one writer: it sends the queued pieces in order,
// waiting for each to be queued, until the round's last one is sent, a
// send fails, or the receive loop gives up.
func (r *Ring) write() {
	defer r.wrote.Done()
	var err error
	r.mu.Lock()
	for err == nil {
		for r.sent == len(r.sends) && !r.queued && !r.quit {
			r.cond.Wait()
		}
		if r.quit || r.sent == len(r.sends) {
			break
		}
		s := r.sends[r.sent]
		r.mu.Unlock()
		err = r.send(s)
		r.mu.Lock()
		if err == nil {
			r.sent++
			r.cond.Broadcast()
		}
	}
	r.wdone = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.werr = err
}

// send frames one piece under its encoding and flushes it. An int8 piece
// is a whole chunk, quantized at its offset in the flat vector (the
// quantizer's residual index).
func (r *Ring) send(s ringSend) error {
	var err error
	switch s.enc {
	case CompressFP16:
		err = r.sendBuf.writeF16(r.next, s.vals)
	case CompressInt8:
		if cap(r.qbuf) < len(s.vals) {
			r.qbuf = make([]byte, len(s.vals))
		}
		q := r.qbuf[:len(s.vals)]
		err = r.sendBuf.writeInt8(r.next, r.quant.QuantizeAt(s.off, s.vals, q), q)
	default:
		err = r.sendBuf.writeF32(r.next, s.vals)
	}
	if err == nil {
		err = r.next.Flush()
	}
	if err != nil {
		return fmt.Errorf("dist: rank %d send: %w", r.rank, err)
	}
	return nil
}

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
