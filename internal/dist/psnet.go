package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"

	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// A real parameter server over TCP, the multi-machine data-parallel
// scheme of §2.2/§4.5 (Li et al.): workers start from the server's
// weights, compute gradients on their shard, and push them back; the server
// averages one push per worker, applies the optimizer, and releases the
// next round. Pushes are reduced in rank order, so a synchronous N-worker
// run is not only numerically equivalent to one big-batch replica but
// reproducible bit-for-bit run to run — the same determinism discipline
// the ring all-reduce keeps via its fixed hop order.
//
// The server speaks the ring's codec: a fixed 16-byte little-endian
// header, then the tensors in parameter order through the wireBuf
// helpers of wire.go, with nothing per element but the element.
//
//	[0:3]   magic "TBD"
//	[3]     kind (request) or status (reply)
//	[4:8]   rank     int32   a push's sender; a control frame's connection
//	[8:12]  version  int32   request: the version the client holds (-1: none)
//	                         reply: the server's version; checkpoint: the step
//	[12:16] length   uint32  payload bytes that follow
//
// Both ends build the same model, so a push carries no shapes: the server
// knows the one payload length each kind may have and refuses any other
// before it reads or allocates anything. A weights reply starts with the
// server's layout table: the tensor count (u32), then per tensor its name
// (a u8 length, then the bytes) and its shape (a u8 rank, then one u32 per
// dim). The client is handed no model, and cuts its retained copy by that
// table. A checkpoint (checkpoint.go) is the same frame, and a loader
// holds the table to its model's names and shapes.
//
// Every rank builds its model from the run's seed, as the server built
// its master, so a run opens with a handshake instead of a pull: the
// client sends the FNV-1a fingerprint of the statusWeights payload its
// own weights would make, and the server answers statusUnchanged at
// version 0 only while it is still at version 0 and its version-0 payload
// hashes the same. Any other handshake (a mismatch, or an async server
// already past version 0) is answered with the full weights frame, so a
// rank skips only bytes that hash to what it holds. The client's retained
// copy then starts with the first push reply.
//
// A synchronous round is pipelined so the server's link carries the reply
// while the pushes are still arriving. The flat parameter stream is cut
// into fixed ranges of psRangeElems (one throttle chunk of fp32), set by
// the model alone. A push is decoded range by range; the handler that
// delivers the last rank's copy of a range reduces it in rank order
// (sum += v, then sum *= 1/N), steps the optimizer on that range only,
// copies the new weights into the round's reply frame and moves the
// frame's published mark. Each connection's one writer streams the frame
// up to the mark as it moves. The reply is the same statusWeights frame,
// byte for byte, and every weight the same bits, as when the round was
// reduced, applied and encoded whole. Reply frames are recycled: a frame
// goes back on a free list once the last writer streaming it is done.

// The frame vocabulary of the parameter server and of the control
// protocol (worker.go), which share the header. Wirecheck holds every kind
// to both sides of its protocol: a kind encoded by one end but missing
// from the other's decode switch would be refused as unknown — the classic
// skew bug of hand-rolled protocols.
//
//tbd:wire-kinds
const (
	kindPull      byte = 1 + iota // no payload
	kindPush                      // raw fp32 gradients
	kindPush16                    // fp16 gradients
	kindPush8                     // per tensor: fp32 scale, then int8 levels
	kindHandshake                 // psFingerprintLen bytes: the fingerprint of the client's version-0 weights payload

	statusWeights   // layout table, then raw fp32 weights
	statusUnchanged // no payload: the client's retained copy, or after a handshake its own weights, is current
	statusError     // a message of at most psMaxErr bytes; the server then hangs up

	kindHello   // the rank's ring listener address, at most ctrlMaxAddr bytes (none in a parameter-server run)
	kindPeers   // the rank-ordered addresses the hellos named, NUL-separated
	kindDone    // no payload: the rank finished training
	kindAllDone // no payload: every rank finished
	kindResult  // a result's fixed fields, then the rank's trace as prof.Trace.Write makes it (none unless it profiled)

	kindHeartbeat // no payload: a training rank, or the coordinator to a rank that said done, is alive
)

const (
	psMagic     = "TBD"
	psHeaderLen = 16
	psMaxErr    = 256
	// psFingerprintLen is a handshake's payload: a little-endian uint64.
	psFingerprintLen = 8
	// psRangeElems is the synchronous round's grain: one throttle chunk of
	// fp32 gradients.
	psRangeElems = throttleChunk / 4
	// psFreeFrames bounds the recycled reply frames kept for reuse; a sync
	// server runs on two.
	psFreeFrames = 2
	// psMaxLayout bounds a layout table, for the end that writes one and
	// the end that reads one.
	psMaxLayout = 64 << 10
)

// Frame errors either end raises on bytes it will not interpret. The
// server names them in one statusError reply and closes the connection;
// the client returns them and closes its own. The rest of the block are
// the control protocol's refusals and a checkpoint loader's.
var (
	errBadMagic    = errors.New("bad frame magic")
	errUnknownKind = errors.New("unknown frame kind")
	errBadLength   = errors.New("payload length does not match the model")
	errLongError   = errors.New("error reply over 256 bytes")

	errServerClosed = errors.New("server closed")
	// errRoundFailed: a push broke off after part of its round was applied,
	// so the weights match no version; the server refuses everything after.
	errRoundFailed = errors.New("round failed")
	// errRefused marks a statusError reply on the client: the server named
	// why it hung up.
	errRefused = errors.New("server")
	// errReplyCut marks a weights reply the stream ended inside — a server
	// that failed or closed mid-stream, as EOF or reset alike.
	errReplyCut = errors.New("reply cut short")

	errStopped       = errors.New("reply abandoned")
	errWriterStopped = errors.New("reply writer stopped")

	errOutOfSequence  = errors.New("control frame out of sequence")
	errWrongRank      = errors.New("control frame from another rank")
	errRankRange      = errors.New("rank outside the run")
	errRankTaken      = errors.New("rank claimed twice")
	errLayoutMismatch = errors.New("layout does not match the model")
	errTrailingBytes  = errors.New("bytes past the end of the frame")
	errNegativeStep   = errors.New("negative step")
	errFrozenNetwork  = errors.New("network has frozen weights")
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

// weightsLayout returns params' layout table and the length of the
// statusWeights payload it opens: the table, then the fp32 weights. It
// refuses a name or a rank over 255, a table over psMaxLayout and a
// payload over one frame.
func weightsLayout(params []*layers.Param) (table []byte, length int, err error) {
	table = binary.LittleEndian.AppendUint32(nil, uint32(len(params)))
	elems := 0
	for _, p := range params {
		shape := p.Value.Shape()
		if len(p.Name) > math.MaxUint8 || len(shape) > math.MaxUint8 {
			return nil, 0, fmt.Errorf("dist: tensor %q of rank %d does not fit a layout table", p.Name, len(shape))
		}
		table = append(append(append(table, byte(len(p.Name))), p.Name...), byte(len(shape)))
		for _, d := range shape {
			table = binary.LittleEndian.AppendUint32(table, uint32(d))
		}
		elems += p.Value.Numel()
	}
	if len(table) > psMaxLayout || int64(len(table))+4*int64(elems) > math.MaxUint32 {
		return nil, 0, fmt.Errorf("dist: a model of %d tensors and %d scalars does not fit one weights frame", len(params), elems)
	}
	return table, len(table) + 4*elems, nil
}

// readLayout reads the layout table that opens a statusWeights payload of
// length bytes into buf, and returns it with each tensor's element count,
// appended to sizes. It reads no byte past the table, none past
// psMaxLayout or length, and refuses a table whose weights would not end
// the payload exactly.
func readLayout(r io.Reader, buf *wireBuf, sizes []int, length int64) ([]byte, []int, error) {
	table, elems := buf.bytes[:0], int64(0)
	var err error
	take := func(n int) []byte { // the next n bytes; nil once err is set
		if err == nil && (len(table)+n > psMaxLayout || int64(len(table)+n)+4*elems > length) {
			err = fmt.Errorf("%w: layout table runs past byte %d of a %d-byte payload", errBadLength, len(table), length)
		}
		if err != nil {
			return nil
		}
		table = slices.Grow(table, n)[:len(table)+n]
		_, err = io.ReadFull(r, table[len(table)-n:])
		return table[len(table)-n:]
	}
	u8 := func() int {
		if b := take(1); err == nil {
			return int(b[0])
		}
		return 0
	}
	count := take(4)
	for i := uint32(0); err == nil && i < binary.LittleEndian.Uint32(count); i++ {
		take(u8()) // the name
		dims, numel := take(4*u8()), int64(1)
		for j := 0; err == nil && j < len(dims); j += 4 {
			// numel <= length/4 < 2^30 before each product, so none overflows.
			if numel *= int64(binary.LittleEndian.Uint32(dims[j:])); int64(len(table))+4*(elems+numel) > length {
				err = fmt.Errorf("%w: tensor %d's weights run past a %d-byte payload", errBadLength, i, length)
			}
		}
		elems += numel
		sizes = append(sizes, int(numel))
	}
	buf.bytes = table[:0]
	if err == nil && int64(len(table))+4*elems != length {
		err = fmt.Errorf("%w: layout accounts for %d of %d bytes", errBadLength, int64(len(table))+4*elems, length)
	}
	return table, sizes, err
}

// weightsFingerprint is the FNV-1a fingerprint of the statusWeights
// payload that params' weights make: the layout table, then the fp32
// weights.
func weightsFingerprint(params []*layers.Param) (uint64, error) {
	table, _, err := weightsLayout(params)
	h := graph.FNV64a(graph.FNVOffset64, table)
	for _, p := range params {
		h = graph.FNV64a(h, f32Bytes(p.Value.Data()))
	}
	return h, err
}

// psRange is one grain of the flat parameter stream, cut by tensor into
// pieces; params views the pieces' weights and gradients for the
// optimizer. hi is where the range ends in the stream.
type psRange struct {
	pieces []psPiece
	params []*layers.Param
	hi     int
}

// psPiece is elements [off, off+n) of tensor, which start at flat in the
// stream.
type psPiece struct {
	tensor, off, n, flat int
}

// cutRanges cuts params' flat stream into ranges of grain elements (the
// last may be shorter). A piece that is a whole tensor is stepped as that
// tensor's own Param, so a grain of the whole model steps params itself.
func cutRanges(params []*layers.Param, grain int) []psRange {
	var out []psRange
	var cur psRange
	flat := 0
	for t, p := range params {
		n := p.Value.Numel()
		for off := 0; ; {
			take := min(n-off, (len(out)+1)*grain-flat)
			cur.pieces = append(cur.pieces, psPiece{tensor: t, off: off, n: take, flat: flat})
			switch {
			case take == n:
				cur.params = append(cur.params, p)
			case take > 0:
				cur.params = append(cur.params, &layers.Param{Name: p.Name,
					Value: tensor.FromSlice(p.Value.Data()[off:off+take], take),
					Grad:  tensor.FromSlice(p.Grad.Data()[off:off+take], take)})
			}
			off += take
			flat += take
			if flat == (len(out)+1)*grain {
				cur.hi = flat
				out, cur = append(out, cur), psRange{}
			}
			if off == n {
				break
			}
		}
	}
	if len(cur.pieces) > 0 || len(out) == 0 {
		cur.hi = flat
		out = append(out, cur)
	}
	return out
}

// psFrame is one statusWeights reply. A writer may send buf[:mark], and
// no byte below mark changes while refs > 0. mark and refs are read and
// written under PSServer.mu.
type psFrame struct {
	buf  []byte
	mark int // bytes published
	refs int // PSServer.reply, the open round, each queued or streaming writer
}

// PSServer is the parameter-server endpoint.
type PSServer struct {
	params []*layers.Param
	// opt is SGD because a round is stepped range by range: an update that
	// is elementwise and keeps no state between calls steps the same bits
	// one range at a time as over the whole model.
	opt     *optim.SGD
	workers int
	sizes   []int     // elements per parameter
	elems   int       // their sum
	ranges  []psRange // the stream's grains, fixed by the model
	table   []byte    // the layout table every reply frame opens with
	base    int       // offset of the weights in a reply frame
	// fp0 is the fingerprint of the version-0 weights payload, which a
	// handshake must match to be answered statusUnchanged. It is written
	// once, before fp0Done closes.
	fp0     uint64
	fp0Done chan struct{}
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
	// The open synchronous round: rankConn[r] is the connection rank r
	// pushed on, whose push buffer it decodes into; delivered[r] counts the
	// ranges it has decoded; done counts the ranges reduced, stepped and
	// published in next, the frame of version+1.
	rankConn  []*psConn             // guarded by mu
	delivered []int                 // guarded by mu
	done      int                   // guarded by mu
	next      *psFrame              // guarded by mu
	version   int                   // applied updates; guarded by mu
	reply     *psFrame              // version's frame, wholly published; guarded by mu
	free      []*psFrame            // recycled reply frames; guarded by mu
	failed    error                 // why the server refuses everything; guarded by mu
	clocks    []int                 // per-rank applied pushes (bounded async); guarded by mu
	conns     map[net.Conn]struct{} // live connections, closed on shutdown; guarded by mu
	linkIn    *tokenBucket          // shared ingress budget for accepted conns; guarded by mu
	linkOut   *tokenBucket          // shared egress budget for accepted conns; guarded by mu
	closed    bool                  // guarded by mu

	listener net.Listener
	wg       sync.WaitGroup
}

// ServePS starts a parameter server on l managing params with opt,
// expecting one gradient push per round from each of workers clients.
// It returns immediately; Close shuts it down.
func ServePS(l net.Listener, params []*layers.Param, opt *optim.SGD, workers int) *PSServer {
	return servePS(l, newPSServer(params, opt, workers, false, -1))
}

// ServeBoundedAsyncPS starts an asynchronous parameter server: pushes
// apply immediately with no round barrier, but a worker whose clock runs
// more than staleness rounds ahead of the slowest worker blocks until
// the stragglers catch up (stale synchronous parallel). staleness 0
// degenerates to a synchronous barrier, large values approach fully
// async, and -1 is unbounded — the update discipline the paper's A3C
// benchmark uses.
func ServeBoundedAsyncPS(l net.Listener, params []*layers.Param, opt *optim.SGD, workers, staleness int) *PSServer {
	if staleness < -1 {
		panic("dist: bounded-async staleness must be >= -1")
	}
	return servePS(l, newPSServer(params, opt, workers, true, staleness))
}

func servePS(l net.Listener, s *PSServer) *PSServer {
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// newPSServer builds a server with no listener; servePS starts its accept
// loop.
//
//tbd:pre-publication guarded fields are written before the fingerprint goroutine (the first concurrent observer) starts
func newPSServer(params []*layers.Param, opt *optim.SGD, workers int, async bool, staleness int) *PSServer {
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
		rankConn:  make([]*psConn, workers),
		delivered: make([]int, workers),
		clocks:    make([]int, workers),
		conns:     make(map[net.Conn]struct{}),
	}
	for i, p := range params {
		s.sizes[i] = p.Value.Numel()
		s.elems += s.sizes[i]
	}
	table, _, err := weightsLayout(params)
	if err != nil {
		panic(err)
	}
	s.table, s.base = table, psHeaderLen+len(table)
	s.ranges = cutRanges(params, psRangeElems)
	s.cond = sync.NewCond(&s.mu)
	s.reply = s.frameLocked(0)
	s.publishAllLocked(s.reply)
	// The version-0 frame is hashed while the ranks build their models and
	// hash their own weights, off the run's critical path; a handshake
	// waits for it. The reference keeps the frame from being recycled for
	// a later version meanwhile.
	f := s.reply
	f.refs++
	s.fp0Done = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.fp0 = graph.FNV64a(graph.FNVOffset64, f.buf[psHeaderLen:])
		close(s.fp0Done)
		s.release(f)
	}()
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

// Close stops the accept loop, unblocks every in-flight handler and
// writer by closing the live connections, and waits for all of them to
// exit. It is safe to call with workers mid-round.
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
			s.serveConn(newPSConn(ThrottleShared(conn, in, out)))
		}()
	}
}

// psReply is one reply queued for a connection's writer: a weights frame,
// streamed as far as it is published, or a bare header.
type psReply struct {
	f   *psFrame
	hdr [psHeaderLen]byte
}

// psConn is one accepted connection: its handler's decode state and the
// queue to its writer.
type psConn struct {
	conn net.Conn
	r    *bufio.Reader
	wb   wireBuf
	// push receives every push of this connection, flat. It is sized from
	// the server's own model at the first push and reused after: a
	// connection has at most one push in an open round.
	push  []float32
	scale float32 // the int8 scale of the tensor being decoded

	replies chan psReply  // handler to writer, in request order
	wrote   chan struct{} // closed when the writer exits
	// cut is set by the writer before wrote closes: the stream stopped
	// inside a reply or on a failed write, so no error reply may follow.
	cut bool
	// stop asks the writer to give up on a reply that is not wholly
	// published; written under PSServer.mu.
	stop bool
}

func newPSConn(conn net.Conn) *psConn {
	return &psConn{
		conn:    conn,
		r:       bufio.NewReaderSize(conn, 64<<10),
		replies: make(chan psReply, 1),
		wrote:   make(chan struct{}),
	}
}

// serveConn answers frames until the client hangs up or sends one the
// server refuses; a refusal is named in a single error reply, unless the
// writer has already cut a reply short, and the connection closed.
func (s *PSServer) serveConn(pc *psConn) {
	go s.writeReplies(pc)
	var err error
	for err == nil {
		err = s.serveFrame(pc)
	}
	if err != io.EOF {
		s.mu.Lock()
		pc.stop = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	close(pc.replies)
	<-pc.wrote
	for r := range pc.replies { // what a writer that quit early left queued
		s.release(r.f)
	}
	if err == io.EOF || pc.cut {
		return
	}
	msg := err.Error()
	if len(msg) > psMaxErr {
		msg = msg[:psMaxErr]
	}
	var b [psHeaderLen + psMaxErr]byte
	putHeader(b[:], statusError, 0, 0, len(msg))
	n := psHeaderLen + copy(b[psHeaderLen:], msg)
	_, _ = pc.conn.Write(b[:n]) // the connection closes whether or not the refusal arrives
}

// writeReplies is a connection's one writer: it sends the replies the
// handler queues, in order, each weights frame as far as it is published.
// Unless the handler stopped it, a writer that gives up closes the
// connection, which ends the handler's read and the client's.
func (s *PSServer) writeReplies(pc *psConn) {
	defer close(pc.wrote)
	for r := range pc.replies {
		var sent int
		var err error
		if r.f == nil {
			_, err = pc.conn.Write(r.hdr[:])
		} else {
			sent, err = s.stream(pc, r.f)
			s.release(r.f)
		}
		if err != nil {
			pc.cut = sent > 0 || err != errStopped
			if err != errStopped {
				pc.conn.Close()
			}
			return
		}
	}
}

// stream sends f's bytes as they are published and returns how many it
// sent and, if it gave up short of the end, why.
func (s *PSServer) stream(pc *psConn, f *psFrame) (int, error) {
	sent := 0
	for sent < len(f.buf) {
		s.mu.Lock()
		for f.mark == sent && s.abandonedLocked(pc) == nil {
			s.cond.Wait()
		}
		mark, err := f.mark, s.abandonedLocked(pc)
		s.mu.Unlock()
		if mark == sent {
			return sent, err
		}
		if _, err := pc.conn.Write(f.buf[sent:mark]); err != nil {
			return sent, err
		}
		sent = mark
	}
	return sent, nil
}

// abandonedLocked says why a writer waiting on pc's behalf should give
// up, or nil.
//
//tbd:locked-by-caller
func (s *PSServer) abandonedLocked(pc *psConn) error {
	if pc.stop {
		return errStopped
	}
	return s.refusedLocked()
}

// refusedLocked says why the server takes no more requests, or nil.
//
//tbd:locked-by-caller
func (s *PSServer) refusedLocked() error {
	if s.closed {
		return errServerClosed
	}
	return s.failed
}

// queue hands r to pc's writer, or drops it once the writer has quit.
func (s *PSServer) queue(pc *psConn, r psReply) error {
	select {
	case pc.replies <- r:
		return nil
	case <-pc.wrote:
		s.release(r.f)
		return errWriterStopped
	}
}

// serveFrame reads one request, validates its header against the server's
// own model before touching the payload, and queues its reply.
func (s *PSServer) serveFrame(pc *psConn) error {
	h, err := readHeader(pc.r)
	if err != nil {
		return err
	}
	switch h.kind {
	case kindPull:
		if h.length != 0 {
			return fmt.Errorf("%w: pull with %d payload bytes", errBadLength, h.length)
		}
		return s.handlePull(pc, h, 0)
	case kindHandshake:
		if h.length != psFingerprintLen {
			return fmt.Errorf("%w: handshake with %d payload bytes, want %d", errBadLength, h.length, psFingerprintLen)
		}
		b := pc.wb.grow(psFingerprintLen)
		if _, err := io.ReadFull(pc.r, b); err != nil {
			return fmt.Errorf("read handshake fingerprint: %w", err)
		}
		<-s.fp0Done
		return s.handlePull(pc, h, binary.LittleEndian.Uint64(b))
	case kindPush, kindPush16, kindPush8:
		if h.rank < 0 || h.rank >= s.workers {
			return fmt.Errorf("rank %d outside [0, %d)", h.rank, s.workers)
		}
		if want := pushPayloadLen(h.kind, s.elems, len(s.sizes)); h.length != int64(want) {
			return fmt.Errorf("%w: push kind %d with %d payload bytes, want %d", errBadLength, h.kind, h.length, want)
		}
		if pc.push == nil {
			pc.push = make([]float32, s.elems)
		}
		if s.async {
			return s.handleAsyncPush(pc, h)
		}
		return s.handleSyncPush(pc, h)
	}
	return fmt.Errorf("%w %d", errUnknownKind, h.kind)
}

// readRange decodes rg of a push of kind into pc.push. An int8 tensor's
// scale comes before its first level, so a piece that starts a tensor
// reads it; a tensor a range boundary cuts keeps its scale in pc.
func (s *PSServer) readRange(pc *psConn, kind byte, rg *psRange) error {
	for _, p := range rg.pieces {
		dst := pc.push[p.flat : p.flat+p.n]
		var err error
		switch kind {
		case kindPush16:
			err = pc.wb.readF16(pc.r, dst)
		case kindPush8:
			if p.off == 0 {
				pc.scale, err = pc.wb.readScale(pc.r)
			}
			if err == nil {
				err = pc.wb.readLevels(pc.r, pc.scale, dst)
			}
		default:
			err = pc.wb.readF32(pc.r, dst)
		}
		if err != nil {
			return fmt.Errorf("read push payload: %w", err)
		}
	}
	return nil
}

// handlePull answers a pull or a handshake h: the current weights frame,
// or a bare header when the client already holds them — a pull that names
// the server's version, or a handshake whose fingerprint fp is version 0's
// while the server is still there.
func (s *PSServer) handlePull(pc *psConn, h psHeader, fp uint64) error {
	s.mu.Lock()
	if err := s.refusedLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	held := h.version == s.version
	if h.kind == kindHandshake {
		held = s.version == 0 && fp == s.fp0
	}
	var r psReply
	if held {
		putHeader(r.hdr[:], statusUnchanged, 0, s.version, 0)
	} else {
		r.f = s.reply
		r.f.refs++
	}
	s.mu.Unlock()
	return s.queue(pc, r)
}

// handleSyncPush joins pc's push to the open round, queues the round's
// reply to stream while the push is still arriving, and decodes the push
// range by range.
func (s *PSServer) handleSyncPush(pc *psConn, h psHeader) error {
	s.mu.Lock()
	f, err := s.claimLocked(pc, h.rank)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	err = s.queue(pc, psReply{f: f})
	for i := 0; err == nil && i < len(s.ranges); i++ {
		if err = s.readRange(pc, h.kind, &s.ranges[i]); err == nil {
			s.mu.Lock()
			s.deliverLocked(h.rank)
			s.mu.Unlock()
		}
	}
	if err != nil {
		s.mu.Lock()
		s.abandonLocked(h.rank)
		s.mu.Unlock()
	}
	return err
}

// claimLocked enters pc's push as rank's in the open round and returns
// the round's reply frame, one reference taken for pc's writer.
//
//tbd:locked-by-caller
func (s *PSServer) claimLocked(pc *psConn, rank int) (*psFrame, error) {
	if err := s.refusedLocked(); err != nil {
		return nil, err
	}
	if s.rankConn[rank] != nil {
		return nil, fmt.Errorf("rank %d pushed twice in one round", rank)
	}
	for r, c := range s.rankConn {
		if c == pc {
			return nil, fmt.Errorf("rank %d pushed on a connection whose rank %d push is still in the round", rank, r)
		}
	}
	if s.next == nil {
		s.next = s.frameLocked(s.version + 1)
	}
	s.rankConn[rank] = pc
	s.next.refs++
	return s.next, nil
}

// deliverLocked records one more range of rank's push and applies every
// range all ranks now hold. Ranges complete in stream order because every
// push is decoded in that order.
//
//tbd:locked-by-caller
func (s *PSServer) deliverLocked(rank int) {
	s.delivered[rank]++
	ready := minInt(s.delivered)
	if s.done == ready {
		return // a peer still owes this range
	}
	for ; s.done < ready; s.done++ {
		s.applyRangeLocked(&s.ranges[s.done])
	}
	if s.done == len(s.ranges) {
		s.version++
		s.releaseLocked(s.reply)
		s.reply, s.next = s.next, nil
		for r := range s.rankConn {
			s.rankConn[r], s.delivered[r] = nil, 0
		}
		s.done = 0
	}
	s.cond.Broadcast()
}

// applyRangeLocked reduces rg in rank order 0..N-1 — the accumulation
// order never depends on network arrival, so repeated runs are
// bit-identical — steps the optimizer on it and publishes its new weights.
//
//tbd:locked-by-caller
func (s *PSServer) applyRangeLocked(rg *psRange) {
	inv := 1 / float32(s.workers)
	for _, p := range rg.pieces {
		sum := s.params[p.tensor].Grad.Data()[p.off : p.off+p.n]
		clearF32(sum)
		for _, c := range s.rankConn {
			for j, v := range c.push[p.flat : p.flat+p.n] {
				sum[j] += v
			}
		}
		for j := range sum {
			sum[j] *= inv
		}
	}
	s.opt.Step(rg.params)
	for _, p := range rg.pieces {
		copy(s.next.buf[s.base+4*p.flat:], f32Bytes(s.params[p.tensor].Value.Data()[p.off:p.off+p.n]))
	}
	s.next.mark = s.base + 4*rg.hi
}

// abandonLocked withdraws rank's push after its payload broke off. Before
// any range is applied the round just waits for that rank again; after,
// the weights are part of the way to the next version, and the server
// fails closed.
//
//tbd:locked-by-caller
func (s *PSServer) abandonLocked(rank int) {
	if s.done == 0 {
		s.rankConn[rank], s.delivered[rank] = nil, 0
		return
	}
	if s.failed == nil {
		s.failed = fmt.Errorf("%w: rank %d's push broke off with %d of %d ranges applied", errRoundFailed, rank, s.done, len(s.ranges))
	}
	s.cond.Broadcast()
}

// handleAsyncPush decodes a whole push and applies it at once, then holds
// the worker while it is more than `staleness` rounds ahead of the
// slowest clock, and queues the newest weights.
func (s *PSServer) handleAsyncPush(pc *psConn, h psHeader) error {
	for i := range s.ranges {
		if err := s.readRange(pc, h.kind, &s.ranges[i]); err != nil {
			return err
		}
	}
	s.mu.Lock()
	if err := s.refusedLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	for _, rg := range s.ranges {
		for _, p := range rg.pieces {
			copy(s.params[p.tensor].Grad.Data()[p.off:p.off+p.n], pc.push[p.flat:p.flat+p.n])
		}
	}
	s.opt.Step(s.params)
	s.version++
	f := s.frameLocked(s.version)
	s.publishAllLocked(f)
	s.releaseLocked(s.reply)
	s.reply = f
	s.clocks[h.rank]++
	s.cond.Broadcast()
	for s.staleness >= 0 && s.clocks[h.rank]-minInt(s.clocks) > s.staleness && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return errServerClosed
	}
	f = s.reply
	f.refs++
	s.mu.Unlock()
	return s.queue(pc, psReply{f: f})
}

// frameLocked returns a reply frame for version with nothing published
// and one reference held: a recycled one, or a new one with the layout
// table written.
//
//tbd:locked-by-caller
func (s *PSServer) frameLocked(version int) *psFrame {
	var f *psFrame
	if n := len(s.free); n > 0 {
		f, s.free = s.free[n-1], s.free[:n-1]
	} else {
		f = &psFrame{buf: make([]byte, s.base+4*s.elems)}
		copy(f.buf[psHeaderLen:], s.table)
	}
	putHeader(f.buf, statusWeights, 0, version, len(f.buf)-psHeaderLen)
	f.mark, f.refs = 0, 1
	return f
}

// publishAllLocked copies every weight into f and publishes all of it.
//
//tbd:locked-by-caller
func (s *PSServer) publishAllLocked(f *psFrame) {
	b := f.buf[s.base:]
	for _, p := range s.params {
		b = b[copy(b, f32Bytes(p.Value.Data())):]
	}
	f.mark = len(f.buf)
}

// releaseLocked drops one reference to f; the last one recycles it.
//
//tbd:locked-by-caller
func (s *PSServer) releaseLocked(f *psFrame) {
	if f.refs--; f.refs == 0 && len(s.free) < psFreeFrames {
		s.free = append(s.free, f)
	}
}

// release drops a writer's reference to f, if it holds one (f != nil).
func (s *PSServer) release(f *psFrame) {
	if f == nil {
		return
	}
	s.mu.Lock()
	s.releaseLocked(f)
	s.mu.Unlock()
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
// from Handshake, Pull and PushRanked are the client's retained copy of
// the server's parameters, overwritten in place by the next call that
// brings a newer version. Copy them out first — LoadWeights does.
type PSClient struct {
	conn  net.Conn
	count *countingConn
	w     *bufio.Writer
	sbuf  wireBuf                // encodes requests
	fp    [psFingerprintLen]byte // a handshake's payload

	// One reader goroutine, for the client's life, decodes each reply while
	// the request is still going out, so the server can stream a reply
	// before it has the whole push. It owns r, rbuf, weights and version
	// from a start until the matching got.
	r         *bufio.Reader
	rbuf      wireBuf
	start     chan byte     // a request of this kind is going out: decode its reply
	got       chan error    // how that decode ended
	quit      chan struct{} // closed by Close
	closeOnce sync.Once

	weights [][]float32 // laid out by layout
	layout  []byte      // the table of the last weights reply
	sizes   []int       // its tensors' element counts
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
	return newPSClient(conn, count, wire, wire), nil
}

// newPSClient starts a client that reads replies from r and writes
// requests to w, both of which end at conn.
func newPSClient(conn net.Conn, count *countingConn, r io.Reader, w io.Writer) *PSClient {
	c := &PSClient{
		conn: conn, count: count, version: -1,
		r: bufio.NewReaderSize(r, 64<<10), w: bufio.NewWriterSize(w, 64<<10),
		start: make(chan byte), got: make(chan error, 1), quit: make(chan struct{}),
	}
	go c.readReplies()
	return c
}

func (c *PSClient) readReplies() {
	for {
		select {
		case kind := <-c.start:
			c.got <- c.receive(kind)
		case <-c.quit:
			return
		}
	}
}

// Close terminates the connection and the reader.
func (c *PSClient) Close() error {
	c.closeOnce.Do(func() { close(c.quit) })
	return c.conn.Close()
}

// WireBytes returns cumulative (in, out) wire bytes this client moved.
func (c *PSClient) WireBytes() (in, out int64) { return c.count.Bytes() }

// Handshake is a client's first request, in place of a Pull. It sends
// the fingerprint of the weights params hold and returns nil weights when
// they are the server's version 0 — a rank that built its model from the
// seed the server built its master from — and otherwise the server's
// current weights and version, for the caller to load. Only a weights
// reply starts the client's retained copy.
func (c *PSClient) Handshake(params []*layers.Param) ([][]float32, int, error) {
	if c.version != -1 {
		return nil, 0, fmt.Errorf("dist: handshake on a client already holding version %d", c.version)
	}
	fp, err := weightsFingerprint(params)
	if err != nil {
		return nil, 0, err
	}
	binary.LittleEndian.PutUint64(c.fp[:], fp)
	weights, version, err := c.roundTrip(kindHandshake, 0, nil)
	if weights == nil {
		version = 0
	}
	return weights, version, err
}

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
// same tensor layout every round. grads must not alias the weights an
// earlier call returned: the reply is decoded into them while the push is
// still being sent.
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

// roundTrip sends one request while the reader decodes its reply into the
// retained weights. A failure leaves the stream at an unknown offset, so
// it closes the connection.
func (c *PSClient) roundTrip(kind byte, rank int, grads [][]float32) ([][]float32, int, error) {
	elems := 0
	for _, g := range grads {
		elems += len(g)
	}
	length := 0
	switch kind {
	case kindHandshake:
		length = psFingerprintLen
	case kindPush, kindPush16, kindPush8:
		length = pushPayloadLen(kind, elems, len(grads))
	}
	if int64(length) > math.MaxUint32 {
		c.conn.Close()
		return nil, 0, fmt.Errorf("dist: push of %d bytes exceeds one frame", length)
	}
	var hdr [psHeaderLen]byte
	putHeader(hdr[:], kind, rank, c.version, length) // before the reader may move c.version

	in0, out0 := c.count.Bytes()
	sp := prof.Begin(prof.CatComm, "comm.ps.roundtrip")
	sp.MeasureCPU() // the codec and socket work beside the wait, which what-if replay prices
	var err error
	select {
	case c.start <- kind:
		if sendErr := c.send(hdr[:], kind, grads); sendErr != nil {
			c.conn.Close() // no reply is coming: end the reader's wait
			// The server's own refusal, if it got one out, says more.
			if err = <-c.got; !errors.Is(err, errRefused) {
				err = sendErr
			}
		} else {
			err = <-c.got
		}
	case <-c.quit:
		err = fmt.Errorf("dist: round trip on a closed client: %w", net.ErrClosed)
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

func (c *PSClient) send(hdr []byte, kind byte, grads [][]float32) error {
	_, err := c.w.Write(hdr)
	if err == nil && kind == kindHandshake {
		_, err = c.w.Write(c.fp[:])
	}
	for i, g := range grads {
		if err != nil {
			break
		}
		switch kind {
		case kindPush16:
			err = c.sbuf.writeF16(c.w, g)
		case kindPush8:
			q := c.qbuf[:len(g)]
			err = c.sbuf.writeInt8(c.w, c.quant.QuantizeAt(c.offs[i], g, q), q)
		default:
			err = c.sbuf.writeF32(c.w, g)
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

// receive decodes the reply to a request of kind.
func (c *PSClient) receive(kind byte) error {
	h, err := readHeader(c.r)
	if err != nil {
		return fmt.Errorf("dist: receive reply: %w", err)
	}
	switch h.kind {
	case statusWeights:
		if err := c.readWeights(h.length); err != nil {
			if !errors.Is(err, errBadLength) {
				err = fmt.Errorf("%w: %w", errReplyCut, err)
			}
			return fmt.Errorf("dist: receive weights: %w", err)
		}
		c.version = h.version
		return nil
	case statusUnchanged:
		// A handshake's own weights are current only at version 0, and
		// they are the caller's, not a retained copy.
		held := c.weights != nil && h.version == c.version
		if kind == kindHandshake {
			held = h.version == 0
		}
		if h.length != 0 || !held {
			return fmt.Errorf("dist: receive reply: unchanged at version %d with %d payload bytes, holding %d", h.version, h.length, c.version)
		}
		return nil
	case statusError:
		if h.length > psMaxErr {
			return fmt.Errorf("dist: receive reply: %w", errLongError)
		}
		msg := c.rbuf.grow(int(h.length))
		if _, err := io.ReadFull(c.r, msg); err != nil {
			return fmt.Errorf("dist: receive error reply: %w", err)
		}
		return fmt.Errorf("dist: %w: %s", errRefused, msg)
	}
	return fmt.Errorf("dist: receive reply: %w %d", errUnknownKind, h.kind)
}

// readWeights decodes a statusWeights payload of length bytes. The layout
// table must account for the length exactly; the retained copy is sized
// from it on the first reply and reused while the table holds.
func (c *PSClient) readWeights(length int64) error {
	table, sizes, err := readLayout(c.r, &c.rbuf, c.sizes[:0], length)
	if err != nil {
		return err
	}
	if c.sizes = sizes; !bytes.Equal(table, c.layout) {
		c.layout, c.weights = append(c.layout[:0], table...), make([][]float32, len(sizes))
		flat := make([]float32, (length-int64(len(table)))/4)
		for i, n := range sizes {
			c.weights[i], flat = flat[:n:n], flat[n:]
		}
	}
	for _, w := range c.weights {
		if err := c.rbuf.readF32(c.r, w); err != nil {
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
