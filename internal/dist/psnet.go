package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/prof"
)

// A real parameter server over TCP, the multi-machine data-parallel
// scheme of §2.2/§4.5 (Li et al.): workers pull the current weights,
// compute gradients on their shard, and push them back; the server
// averages one push per worker, applies the optimizer, and releases the
// next round. Pushes are buffered per rank and reduced in rank order, so
// a synchronous N-worker run is not only numerically equivalent to one
// big-batch replica but reproducible bit-for-bit run to run — the same
// determinism discipline the ring all-reduce keeps via its fixed hop
// order.
//
// The server speaks the ring's codec: a fixed 16-byte little-endian
// header, then the tensors in parameter order through the wireBuf
// helpers of wire.go, with nothing per element but the element.
//
//	[0:3]   magic "TBD"
//	[3]     kind (request) or status (reply)
//	[4:8]   rank     int32   a push's sender
//	[8:12]  version  int32   request: the version the client holds (-1: none)
//	                         reply: the server's version
//	[12:16] length   uint32  payload bytes that follow
//
// Both ends build the same model, so a push carries no shapes: the server
// knows the one payload length each kind may have and refuses any other
// before it reads or allocates anything. A weights reply starts with the
// server's layout (tensor count, then each tensor's element count): the
// client is handed no model, and cuts its retained copy by that table.

// The parameter-server frame vocabulary. Wirecheck holds every kind to
// both sides of the protocol: a kind encoded by one end but missing from
// the other's decode switch would be refused as unknown — the classic
// skew bug of hand-rolled protocols.
//
//tbd:wire-kinds
const (
	kindPull   byte = 1 + iota // no payload
	kindPush                   // raw fp32 gradients
	kindPush16                 // fp16 gradients
	kindPush8                  // per tensor: fp32 scale, then int8 levels

	statusWeights   // layout table, then raw fp32 weights
	statusUnchanged // no payload: the client's retained copy is current
	statusError     // a message of at most psMaxErr bytes; the server then hangs up
)

const (
	psMagic     = "TBD"
	psHeaderLen = 16
	psMaxErr    = 256
)

// Frame errors either end raises on bytes it will not interpret. The
// server names them in one statusError reply and closes the connection;
// the client returns them and closes its own.
var (
	errBadMagic    = errors.New("bad frame magic")
	errUnknownKind = errors.New("unknown frame kind")
	errBadLength   = errors.New("payload length does not match the model")
	errLongError   = errors.New("error reply over 256 bytes")

	errServerClosed = errors.New("server closed")
)

type psHeader struct {
	kind          byte
	rank, version int
	length        int64
}

func putHeader(b []byte, kind byte, rank, version, length int) {
	copy(b, psMagic)
	b[3] = kind
	binary.LittleEndian.PutUint32(b[4:], uint32(int32(rank)))
	binary.LittleEndian.PutUint32(b[8:], uint32(int32(version)))
	binary.LittleEndian.PutUint32(b[12:], uint32(length))
}

// readHeader returns io.EOF only when the stream ended between frames.
func readHeader(r io.Reader) (psHeader, error) {
	var b [psHeaderLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return psHeader{}, err
	}
	if string(b[:3]) != psMagic {
		return psHeader{}, errBadMagic
	}
	return psHeader{
		kind:    b[3],
		rank:    int(int32(binary.LittleEndian.Uint32(b[4:]))),
		version: int(int32(binary.LittleEndian.Uint32(b[8:]))),
		length:  int64(binary.LittleEndian.Uint32(b[12:])),
	}, nil
}

// pushPayloadLen is the one payload length a push of kind may have for a
// model of elems scalars in tensors tensors.
func pushPayloadLen(kind byte, elems, tensors int) int {
	switch kind {
	case kindPush16:
		return 2 * elems
	case kindPush8:
		return elems + 4*tensors
	}
	return 4 * elems
}

// weightsPayloadLen is the payload length of a statusWeights reply.
func weightsPayloadLen(elems, tensors int) int { return 4 + 4*tensors + 4*elems }

// PSServer is the parameter-server endpoint.
type PSServer struct {
	params  []*layers.Param
	opt     optim.Optimizer
	workers int
	sizes   []int // elements per parameter
	elems   int   // their sum
	// async applies each push immediately instead of waiting for a full
	// synchronous round — the A3C-style update discipline (Hogwild over
	// the network). Workers may then train on slightly stale weights.
	async bool
	// staleness bounds how far a worker may run ahead of the slowest
	// worker in async mode (SSP, Ho et al.): a push blocks while
	// clock(rank) - min(clocks) exceeds it. Negative = unbounded.
	staleness int

	mu   sync.Mutex
	cond *sync.Cond
	// rankGrads[r] is rank r's push of this round. It aliases the pushing
	// connection's buffer, whose handler is parked on cond until the round
	// is reduced.
	rankGrads [][][]float32 // guarded by mu
	rankSeen  int           // distinct pushes buffered; guarded by mu
	version   int           // applied updates; guarded by mu
	// reply is the statusWeights frame for version, encoded once when the
	// version is applied and never written again, so handlers send it after
	// they drop mu.
	reply   []byte                // guarded by mu
	clocks  []int                 // per-rank applied pushes (bounded async); guarded by mu
	conns   map[net.Conn]struct{} // live connections, closed on shutdown; guarded by mu
	linkIn  *tokenBucket          // shared ingress budget for accepted conns; guarded by mu
	linkOut *tokenBucket          // shared egress budget for accepted conns; guarded by mu
	closed  bool                  // guarded by mu

	listener net.Listener
	wg       sync.WaitGroup
}

// ServePS starts a parameter server on l managing params with opt,
// expecting one gradient push per round from each of workers clients.
// It returns immediately; Close shuts it down.
func ServePS(l net.Listener, params []*layers.Param, opt optim.Optimizer, workers int) *PSServer {
	return servePS(l, params, opt, workers, false, -1)
}

// ServeBoundedAsyncPS starts an asynchronous parameter server: pushes
// apply immediately with no round barrier, but a worker whose clock runs
// more than staleness rounds ahead of the slowest worker blocks until
// the stragglers catch up (stale synchronous parallel). staleness 0
// degenerates to a synchronous barrier, large values approach fully
// async, and -1 is unbounded — the update discipline the paper's A3C
// benchmark uses.
func ServeBoundedAsyncPS(l net.Listener, params []*layers.Param, opt optim.Optimizer, workers, staleness int) *PSServer {
	if staleness < -1 {
		panic("dist: bounded-async staleness must be >= -1")
	}
	return servePS(l, params, opt, workers, true, staleness)
}

// servePS initializes the guarded fields before the accept loop (the
// first other goroutine) starts, so construction needs no lock.
//
//tbd:pre-publication guarded fields are written before the accept goroutine (the first concurrent observer) starts
func servePS(l net.Listener, params []*layers.Param, opt optim.Optimizer, workers int, async bool, staleness int) *PSServer {
	if workers <= 0 {
		panic("dist: parameter server needs at least one worker")
	}
	s := &PSServer{
		params:    params,
		opt:       opt,
		workers:   workers,
		sizes:     make([]int, len(params)),
		async:     async,
		staleness: staleness,
		rankGrads: make([][][]float32, workers),
		clocks:    make([]int, workers),
		conns:     make(map[net.Conn]struct{}),
		listener:  l,
	}
	for i, p := range params {
		s.sizes[i] = p.Value.Numel()
		s.elems += s.sizes[i]
	}
	if int64(weightsPayloadLen(s.elems, len(params))) > math.MaxUint32 {
		panic("dist: model too large for one parameter-server frame")
	}
	s.cond = sync.NewCond(&s.mu)
	s.reply = s.encodeReplyLocked()
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// ThrottleLink clamps the server's NIC to bytesPerSec per direction,
// shared across ALL accepted connections — the central-bottleneck model
// that makes N-worker parameter-server scaling honest. Call before
// workers dial; a rate <= 0 leaves the link unthrottled.
func (s *PSServer) ThrottleLink(bytesPerSec float64) {
	in, out := NewSharedLink(bytesPerSec)
	s.mu.Lock()
	s.linkIn, s.linkOut = in, out
	s.mu.Unlock()
}

// Addr returns the listen address.
func (s *PSServer) Addr() string { return s.listener.Addr().String() }

// Version returns the number of applied updates.
func (s *PSServer) Version() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Close stops the accept loop, unblocks every in-flight pull and push
// handler by closing the live connections, and waits for all handler
// goroutines to exit. It is safe to call with workers mid-round: blocked
// pushers observe closed and return an error reply before their
// connection drops.
func (s *PSServer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	// Closing the connections unblocks handlers parked in a header read —
	// without this, Close would hang until every client hung up.
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *PSServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		in, out := s.linkIn, s.linkOut
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(ThrottleShared(conn, in, out))
		}()
	}
}

// psConn is one accepted connection's decode state.
type psConn struct {
	r  *bufio.Reader
	wb wireBuf
	// grads receives every push of this connection. It is sized from the
	// server's own parameters at the first push and reused after: while a
	// round holds it in rankGrads the handler is parked, not reading.
	grads [][]float32
	small [psHeaderLen + psMaxErr]byte // header-only and error replies
}

// serveConn answers frames until the client hangs up or sends one the
// server refuses; a refusal is named in a single error reply and the
// connection closed. No reply is written while mu is held.
func (s *PSServer) serveConn(conn net.Conn) {
	pc := &psConn{r: bufio.NewReaderSize(conn, 64<<10)}
	for {
		reply, err := s.serveFrame(pc)
		if err == io.EOF {
			return
		}
		if err != nil {
			msg := err.Error()
			if len(msg) > psMaxErr {
				msg = msg[:psMaxErr]
			}
			putHeader(pc.small[:], statusError, 0, 0, len(msg))
			n := psHeaderLen + copy(pc.small[psHeaderLen:], msg)
			_, _ = conn.Write(pc.small[:n]) // the connection closes whether or not the refusal arrives
			return
		}
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

// serveFrame reads one request, validates its header against the server's
// own model before touching the payload, and returns the reply frame.
func (s *PSServer) serveFrame(pc *psConn) ([]byte, error) {
	h, err := readHeader(pc.r)
	if err != nil {
		return nil, err
	}
	switch h.kind {
	case kindPull:
		if h.length != 0 {
			return nil, fmt.Errorf("%w: pull with %d payload bytes", errBadLength, h.length)
		}
		return s.handlePull(pc, h.version), nil
	case kindPush, kindPush16, kindPush8:
		if h.rank < 0 || h.rank >= s.workers {
			return nil, fmt.Errorf("rank %d outside [0, %d)", h.rank, s.workers)
		}
		if want := pushPayloadLen(h.kind, s.elems, len(s.sizes)); h.length != int64(want) {
			return nil, fmt.Errorf("%w: push kind %d with %d payload bytes, want %d", errBadLength, h.kind, h.length, want)
		}
		if pc.grads == nil {
			pc.grads = splitFlat(make([]float32, s.elems), s.sizes)
		}
		for _, g := range pc.grads {
			switch h.kind {
			case kindPush16:
				err = pc.wb.readF16(pc.r, g)
			case kindPush8:
				err = pc.wb.readInt8(pc.r, g)
			default:
				err = pc.wb.readF32(pc.r, g)
			}
			if err != nil {
				return nil, fmt.Errorf("read push payload: %w", err)
			}
		}
		return s.handleRankedPush(h.rank, pc.grads)
	}
	return nil, fmt.Errorf("%w %d", errUnknownKind, h.kind)
}

// splitFlat cuts flat into consecutive tensors of the given sizes.
func splitFlat(flat []float32, sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i], flat = flat[:n:n], flat[n:]
	}
	return out
}

// handlePull returns the current weights frame, or a header-only reply
// when the client already holds that version.
func (s *PSServer) handlePull(pc *psConn, have int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have != s.version {
		return s.reply
	}
	putHeader(pc.small[:], statusUnchanged, 0, s.version, 0)
	return pc.small[:psHeaderLen]
}

// encodeReplyLocked builds the statusWeights frame for the current
// version in a fresh buffer: earlier frames may still be on their way
// out of handlers that have dropped mu.
//
//tbd:locked-by-caller
func (s *PSServer) encodeReplyLocked() []byte {
	frame := make([]byte, psHeaderLen+weightsPayloadLen(s.elems, len(s.sizes)))
	putHeader(frame, statusWeights, 0, s.version, len(frame)-psHeaderLen)
	b := frame[psHeaderLen:]
	binary.LittleEndian.PutUint32(b, uint32(len(s.sizes)))
	b = b[4:]
	for _, n := range s.sizes {
		binary.LittleEndian.PutUint32(b, uint32(n))
		b = b[4:]
	}
	for _, p := range s.params {
		b = b[copy(b, f32Bytes(p.Value.Data())):]
	}
	return frame
}

// applyLocked steps the optimizer on the gradients the caller loaded into
// the parameters and publishes the new version's reply frame.
//
//tbd:locked-by-caller
func (s *PSServer) applyLocked() {
	s.opt.Step(s.params)
	optim.ZeroGrads(s.params)
	s.version++
	s.reply = s.encodeReplyLocked()
}

// handleRankedPush takes one rank's decoded push: buffered and reduced in rank
// order when the round completes (sync), or applied immediately under the
// staleness bound (bounded async). It returns the weights frame of the
// version the push produced.
func (s *PSServer) handleRankedPush(rank int, grads [][]float32) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errServerClosed
	}

	if s.async {
		// Apply this worker's contribution immediately, then hold the
		// worker while it is more than `staleness` rounds ahead of the
		// slowest clock.
		for i, p := range s.params {
			copy(p.Grad.Data(), grads[i])
		}
		s.applyLocked()
		s.clocks[rank]++
		s.cond.Broadcast()
		for s.staleness >= 0 && s.clocks[rank]-minInt(s.clocks) > s.staleness && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			return nil, errServerClosed
		}
		return s.reply, nil
	}

	if s.rankGrads[rank] != nil {
		return nil, fmt.Errorf("rank %d pushed twice in one round", rank)
	}
	s.rankGrads[rank] = grads
	s.rankSeen++
	round := s.version
	if s.rankSeen == s.workers {
		// Reduce in rank order 0..N-1: the accumulation order no longer
		// depends on network arrival, so repeated runs are bit-identical.
		inv := 1 / float32(s.workers)
		for i, p := range s.params {
			sum := p.Grad.Data()
			clearF32(sum)
			for _, rg := range s.rankGrads {
				for j, v := range rg[i] {
					sum[j] += v
				}
			}
			for j := range sum {
				sum[j] *= inv
			}
		}
		s.applyLocked()
		for r := range s.rankGrads {
			s.rankGrads[r] = nil
		}
		s.rankSeen = 0
		s.cond.Broadcast()
	} else {
		for s.version == round && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			return nil, errServerClosed
		}
	}
	return s.reply, nil
}

func clearF32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// PSClient is a worker's connection to the parameter server. It is not
// safe for concurrent use, and it owns the weights it returns: the slices
// from Pull and PushRanked are the client's retained copy of the server's
// parameters, overwritten in place by the next call that brings a newer
// version. Copy them out first — LoadWeights does.
type PSClient struct {
	conn  net.Conn
	count *countingConn
	r     *bufio.Reader
	w     *bufio.Writer
	buf   wireBuf // a round trip encodes, then decodes

	weights [][]float32 // laid out by the server's first weights reply
	version int         // of weights; -1 before the first reply

	quant *Int8Quantizer // error-feedback state for int8 pushes
	offs  []int          // flat-stream offset of each tensor for the quantizer
	qbuf  []byte         // one tensor's int8 levels
}

// DialPSThrottled connects a worker to the server at addr over a link
// clamped to bytesPerSec per direction (0 = unthrottled). The client
// counts wire bytes either way.
func DialPSThrottled(addr string, bytesPerSec float64) (*PSClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dial parameter server: %w", err)
	}
	count := newCountingConn(conn)
	wire := Throttle(count, bytesPerSec)
	return &PSClient{
		conn: conn, count: count, version: -1,
		r: bufio.NewReaderSize(wire, 64<<10), w: bufio.NewWriterSize(wire, 64<<10),
	}, nil
}

// Close terminates the connection.
func (c *PSClient) Close() error { return c.conn.Close() }

// WireBytes returns cumulative (in, out) wire bytes this client moved.
func (c *PSClient) WireBytes() (in, out int64) { return c.count.Bytes() }

// Pull returns the server's current weights and version. The request
// names the version the client holds, so when nothing changed the reply
// is a bare header and the retained copy is returned as is.
func (c *PSClient) Pull() ([][]float32, int, error) {
	return c.roundTrip(kindPull, 0, nil)
}

// PushRanked submits this rank's gradients under the given compression
// and blocks until the server has applied them (sync: the whole round),
// returning the post-update weights. Pushes are reduced in rank order,
// which makes synchronous rounds deterministic, and drive the
// bounded-staleness clock in async mode. Int8 pushes keep an
// error-feedback residual inside the client, so a client must push the
// same tensor layout every round.
func (c *PSClient) PushRanked(rank int, comp Compression, grads [][]float32) ([][]float32, int, error) {
	kind := kindPush
	switch comp {
	case CompressFP16:
		kind = kindPush16
	case CompressInt8:
		kind = kindPush8
		if c.quant == nil {
			c.offs = make([]int, len(grads)+1)
			widest := 0
			for i, g := range grads {
				c.offs[i+1] = c.offs[i] + len(g)
				widest = max(widest, len(g))
			}
			c.quant = NewInt8Quantizer(c.offs[len(grads)])
			c.qbuf = make([]byte, widest)
		}
	}
	return c.roundTrip(kind, rank, grads)
}

// roundTrip sends one request and decodes its reply into the retained
// weights. A failure leaves the stream at an unknown offset, so it closes
// the connection.
func (c *PSClient) roundTrip(kind byte, rank int, grads [][]float32) ([][]float32, int, error) {
	in0, out0 := c.count.Bytes()
	sp := prof.Begin(prof.CatComm, "comm.ps.roundtrip")
	err := c.send(kind, rank, grads)
	if err == nil {
		err = c.receive()
	}
	in1, out1 := c.count.Bytes()
	sp.SetBytes((in1 - in0) + (out1 - out0))
	sp.End()
	if err != nil {
		c.conn.Close()
		return nil, 0, err
	}
	return c.weights, c.version, nil
}

func (c *PSClient) send(kind byte, rank int, grads [][]float32) error {
	elems := 0
	for _, g := range grads {
		elems += len(g)
	}
	length := 0
	if kind != kindPull {
		length = pushPayloadLen(kind, elems, len(grads))
	}
	if int64(length) > math.MaxUint32 {
		return fmt.Errorf("dist: push of %d bytes exceeds one frame", length)
	}
	var hdr [psHeaderLen]byte
	putHeader(hdr[:], kind, rank, c.version, length)
	_, err := c.w.Write(hdr[:])
	for i, g := range grads {
		if err != nil {
			break
		}
		switch kind {
		case kindPush16:
			err = c.buf.writeF16(c.w, g)
		case kindPush8:
			q := c.qbuf[:len(g)]
			err = c.buf.writeInt8(c.w, c.quant.QuantizeAt(c.offs[i], g, q), q)
		default:
			err = c.buf.writeF32(c.w, g)
		}
	}
	if err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		return fmt.Errorf("dist: send frame kind %d: %w", kind, err)
	}
	return nil
}

func (c *PSClient) receive() error {
	h, err := readHeader(c.r)
	if err != nil {
		return fmt.Errorf("dist: receive reply: %w", err)
	}
	switch h.kind {
	case statusWeights:
		if err := c.readWeights(h.length); err != nil {
			return fmt.Errorf("dist: receive weights: %w", err)
		}
		c.version = h.version
		return nil
	case statusUnchanged:
		if h.length != 0 || c.weights == nil || h.version != c.version {
			return fmt.Errorf("dist: receive reply: unchanged at version %d with %d payload bytes, holding %d", h.version, h.length, c.version)
		}
		return nil
	case statusError:
		if h.length > psMaxErr {
			return fmt.Errorf("dist: receive reply: %w", errLongError)
		}
		msg := c.buf.grow(int(h.length))
		if _, err := io.ReadFull(c.r, msg); err != nil {
			return fmt.Errorf("dist: receive error reply: %w", err)
		}
		return fmt.Errorf("dist: server: %s", msg)
	}
	return fmt.Errorf("dist: receive reply: %w %d", errUnknownKind, h.kind)
}

// readWeights decodes a statusWeights payload of length bytes. The layout
// table must account for the length exactly; the retained copy is sized
// from it on the first reply and reused while the layout holds.
func (c *PSClient) readWeights(length int64) error {
	var word [4]byte
	if _, err := io.ReadFull(c.r, word[:]); err != nil {
		return err
	}
	n := int64(binary.LittleEndian.Uint32(word[:]))
	if 4+4*n > length {
		return fmt.Errorf("%w: %d tensors in %d bytes", errBadLength, n, length)
	}
	table := c.buf.grow(int(4 * n))
	if _, err := io.ReadFull(c.r, table); err != nil {
		return err
	}
	size := func(i int) int { return int(binary.LittleEndian.Uint32(table[4*i:])) }
	total, same := 4+4*n, int(n) == len(c.weights)
	for i := 0; i < int(n); i++ {
		total += 4 * int64(size(i))
		same = same && size(i) == len(c.weights[i])
	}
	if total != length {
		return fmt.Errorf("%w: layout accounts for %d of %d bytes", errBadLength, total, length)
	}
	if !same {
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = size(i)
		}
		c.weights = splitFlat(make([]float32, (total-4-4*n)/4), sizes)
	}
	for _, w := range c.weights {
		if err := c.buf.readF32(c.r, w); err != nil {
			return err
		}
	}
	return nil
}

// LoadWeights copies pulled weights into a parameter list.
func LoadWeights(params []*layers.Param, weights [][]float32) error {
	if len(weights) != len(params) {
		return fmt.Errorf("dist: %d weight tensors for %d params", len(weights), len(params))
	}
	for i, w := range weights {
		if len(w) != params[i].Value.Numel() {
			return fmt.Errorf("dist: tensor %d has %d elements, want %d", i, len(w), params[i].Value.Numel())
		}
		copy(params[i].Value.Data(), w)
	}
	return nil
}

// GradSlices extracts gradient payloads for a push.
func GradSlices(params []*layers.Param) [][]float32 {
	out := make([][]float32, len(params))
	for i, p := range params {
		out[i] = append([]float32(nil), p.Grad.Data()...)
	}
	return out
}
