package dist

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// rawFrame builds one frame by hand, valid or not.
func rawFrame(kind byte, rank, version int, payload []byte) []byte {
	b := make([]byte, psHeaderLen, psHeaderLen+len(payload))
	putHeader(b, kind, rank, version, len(payload))
	return append(b, payload...)
}

// specialBits are the fp32 patterns a codec is most likely to mangle:
// quiet and signalling NaNs with payloads, both zeros, denormals,
// infinities, the extremes, and two ordinary values.
var specialBits = []uint32{
	0x7fc00001, 0xffc12345, 0x7f800001, 0x00000000, 0x80000000, 0x00000001, 0x807fffff,
	0x7f800000, 0xff800000, 0x7f7fffff, 0x00800000, 0x3f800000, 0xc0490fdb,
}

// encodePush frames grads the way a PSClient does, without a socket.
func encodePush(t *testing.T, comp Compression, rank int, grads [][]float32) []byte {
	t.Helper()
	var buf bytes.Buffer
	srv, cli := net.Pipe()
	srv.Close()
	c := newPSClient(cli, newCountingConn(cli), cli, &buf)
	defer c.Close()
	if _, _, err := c.PushRanked(rank, comp, grads); !errors.Is(err, io.EOF) {
		t.Fatalf("push into a closed pipe: %v", err)
	}
	return buf.Bytes()
}

func TestPSFrameRoundTripPreservesBits(t *testing.T) {
	for _, comp := range []Compression{CompressNone, CompressFP16, CompressInt8} {
		t.Run(comp.String(), func(t *testing.T) {
			s, master := startPS(t, 1, 11)
			grads := GradSlices(master.Params())
			k := 0
			for _, g := range grads {
				for j := range g {
					bits := specialBits[k%len(specialBits)]
					if comp == CompressInt8 && bits&0x7f800000 == 0x7f800000 {
						bits = 0x3e99999a // quantization is defined on finite values only
					}
					g[j] = math.Float32frombits(bits)
					k++
				}
			}
			// What each encoding must deliver: the value itself, its
			// half-precision rounding, or its dequantized int8 level.
			want := make([][]float32, len(grads))
			quant, off := NewInt8Quantizer(s.elems), 0
			for i, g := range grads {
				want[i] = append([]float32(nil), g...)
				switch comp {
				case CompressFP16:
					want[i] = tensor.DecodeHalf(tensor.EncodeHalf(g))
				case CompressInt8:
					q := make([]byte, len(g))
					DequantInt8Slice(quant.QuantizeAt(off, g, q), q, want[i])
				}
				off += len(g)
			}

			srv, cli := net.Pipe()
			pc := newPSConn(srv)
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.serveConn(pc)
			}()
			push := encodePush(t, comp, 0, grads)
			sent := make(chan error, 1)
			go func() {
				_, err := cli.Write(push)
				sent <- err
			}()
			// The reply carries the server's weights — by now full of the
			// NaNs the optimizer was just fed — bit for bit as well.
			c := &PSClient{r: bufio.NewReader(cli), version: -1}
			if err := c.receive(kindPush); err != nil {
				t.Fatal(err)
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			cli.Close()
			<-served
			off = 0
			for i := range want {
				for j := range want[i] {
					if got, w := math.Float32bits(pc.push[off+j]), math.Float32bits(want[i][j]); got != w {
						t.Fatalf("tensor %d[%d]: decoded %#08x, want %#08x", i, j, got, w)
					}
				}
				off += len(want[i])
			}
			if c.version != 1 {
				t.Fatalf("reply version %d, want 1", c.version)
			}
			for i, p := range master.Params() {
				for j, v := range p.Value.Data() {
					if got, w := math.Float32bits(c.weights[i][j]), math.Float32bits(v); got != w {
						t.Fatalf("weight %d[%d]: decoded %#08x, want %#08x", i, j, got, w)
					}
				}
			}
		})
	}
}

func TestPSWireBytesClosedForm(t *testing.T) {
	const workers, steps = 2, 6
	model, err := RunModelByName("mlp-wide")
	if err != nil {
		t.Fatal(err)
	}
	twin := model.Build(1)
	grads := 4 * twin.GradElems()
	// A weights frame's layout table: the tensor count, then each tensor's
	// name and shape, each behind a length byte.
	table := 4
	for _, p := range twin.Params() {
		table += 1 + len(p.Name) + 1 + 4*len(p.Value.Shape())
	}
	if table != 82 {
		t.Fatalf("mlp-wide's layout table is %d bytes, want 82", table)
	}
	weights := psHeaderLen + table + grads
	push := psHeaderLen + grads
	perRank := psHeaderLen + psFingerprintLen + psHeaderLen + // the handshake: the rank's own weights are version 0
		steps*(push+weights) +
		2*psHeaderLen // the post-barrier pull: the last push reply already carried that version
	cfg := CoordConfig{Workers: workers, Strategy: RunPSSync, Model: "mlp-wide", Seed: 1, LR: 0.05}
	s := runCoordinated(t, cfg, steps, 32, 0)
	if want := int64(workers * perRank); s.WireBytes != want {
		t.Fatalf("run moved %d wire bytes, closed form says %d (raw fp32 %d)", s.WireBytes, want, steps*workers*2*grads)
	}
}

func TestPSSyncTrajectoryMatchesParentCommit(t *testing.T) {
	// Final hashes of this exact run on the commit before the frames
	// replaced gob (fp32 bits cross either codec unchanged), under the
	// bit-exact GEMM tier so the constants hold on any amd64 host.
	prev, err := tensor.SetGemmKernelTier(tensor.BitExactGemmTier())
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetGemmKernelTier(prev)
	for comp, want := range map[Compression]uint64{
		CompressNone: 0x8d96ba543c1cad90,
		CompressFP16: 0xef8c9b1d8f7c65aa,
		CompressInt8: 0x99576bdd39b7ab84,
	} {
		cfg := CoordConfig{Workers: 2, Strategy: RunPSSync, Compression: comp, Model: "mlp-wide", Seed: 1, LR: 0.05}
		if s := runCoordinated(t, cfg, 10, 32, 0); s.Hash != want {
			t.Errorf("%s: final weights hash %#x, parent commit had %#x", comp, s.Hash, want)
		}
	}
}

func TestPSSyncRangesMatchParentCommit(t *testing.T) {
	// Final hashes of these runs on the commit before the round was reduced,
	// applied and sent range by range, bit-exact GEMM tier. Three workers on
	// mlp-wide: 25 ranges, whose boundaries cut through both hidden weight
	// matrices, one range holding a whole bias and the head of the next
	// matrix, and int8 tensors whose levels span up to 17 ranges behind one
	// scale. Two on mlp, smaller than one range.
	prev, err := tensor.SetGemmKernelTier(tensor.BitExactGemmTier())
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetGemmKernelTier(prev)
	for _, c := range []struct {
		model          string
		workers, batch int
		want           map[Compression]uint64
	}{
		{"mlp-wide", 3, 48, map[Compression]uint64{
			CompressNone: 0xe1d5ab2b29e36cc6,
			CompressFP16: 0x6f824fb26681f702,
			CompressInt8: 0x04f5db555e51360e,
		}},
		{"mlp", 2, 32, map[Compression]uint64{
			CompressNone: 0x5c42643ec2275c3a,
			CompressFP16: 0x4eb18c697e537441,
			CompressInt8: 0xee14cccfc02f8a9b,
		}},
	} {
		for comp, want := range c.want {
			cfg := CoordConfig{Workers: c.workers, Strategy: RunPSSync, Compression: comp, Model: c.model, Seed: 1, LR: 0.05}
			if s := runCoordinated(t, cfg, 10, c.batch, 0); s.Hash != want {
				t.Errorf("%s, %d workers, %s: final weights hash %#x, parent commit had %#x", c.model, c.workers, comp, s.Hash, want)
			}
		}
	}
}

func TestPushRankedSteadyStateAllocs(t *testing.T) {
	perPush := func(modelName string) (allocs float64, bytes, model uint64) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		master, params, err := BuildMasterParams(modelName, 3)
		if err != nil {
			t.Fatal(err)
		}
		s := ServePS(l, params, optim.NewSGD(0.01), 1)
		defer s.Close()
		c, err := DialPSThrottled(s.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		grads := GradSlices(params)
		push := func() {
			if _, _, err := c.PushRanked(0, CompressNone, grads); err != nil {
				t.Fatal(err)
			}
		}
		push() // sizes every reused buffer
		const runs = 20
		allocs, bytes = math.Inf(1), math.MaxUint64
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = min(allocs, testing.AllocsPerRun(runs, push))
			runtime.ReadMemStats(&after)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/(runs+1))
		}
		return allocs, bytes, uint64(4 * master.GradElems())
	}
	// Nothing grows with the model: the server streams each version from a
	// recycled reply frame, and neither end copies or re-encodes a tensor.
	for _, name := range []string{"mlp", "mlp-wide"} {
		allocs, bytes, model := perPush(name)
		t.Logf("%s: %.0f allocations, %d bytes per round trip (model %d bytes)", name, allocs, bytes, model)
		if allocs > 8 {
			t.Errorf("%s: %.0f allocations per round trip, want at most 8", name, allocs)
		}
		if limit := uint64(16 << 10); bytes > limit {
			t.Errorf("%s: %d bytes allocated per round trip for a %d-byte model, want at most %d", name, bytes, model, limit)
		}
	}
}

func TestPullIsVersionConditional(t *testing.T) {
	s, _ := startPS(t, 1, 12)
	dial := func() *PSClient {
		c, err := DialPSThrottled(s.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := dial(), dial()
	weights, version, err := a.Pull()
	if err != nil || version != 0 {
		t.Fatalf("first pull: version %d, err %v", version, err)
	}
	in0, out0 := a.WireBytes()
	if want := int64(psHeaderLen + len(s.table) + 4*s.elems); in0 != want {
		t.Fatalf("first pull read %d bytes, want a full %d-byte frame", in0, want)
	}
	again, version, err := a.Pull()
	if err != nil || version != 0 || &again[0][0] != &weights[0][0] {
		t.Fatalf("unchanged pull must return the retained copy: version %d, err %v", version, err)
	}
	if in, out := a.WireBytes(); in-in0 != psHeaderLen || out-out0 != psHeaderLen {
		t.Fatalf("unchanged pull moved %d in, %d out; want one header each way", in-in0, out-out0)
	}
	// Another client moves the server on: the next pull is a full one.
	if _, _, err := b.PushRanked(0, CompressNone, GradSlices(s.params)); err != nil {
		t.Fatal(err)
	}
	in0, _ = a.WireBytes()
	if _, version, err = a.Pull(); err != nil || version != 1 {
		t.Fatalf("pull after an update: version %d, err %v", version, err)
	}
	if in, _ := a.WireBytes(); in-in0 <= psHeaderLen {
		t.Fatal("pull after an update must carry the new weights")
	}
	// The pusher's reply already carried version 1.
	in0, _ = b.WireBytes()
	if _, version, err = b.Pull(); err != nil || version != 1 {
		t.Fatalf("pusher's pull: version %d, err %v", version, err)
	}
	if in, _ := b.WireBytes(); in-in0 != psHeaderLen {
		t.Fatalf("pusher's pull read %d bytes, want a bare header", in-in0)
	}
}

// hostileFrames are requests a 2-worker server over the 131-scalar,
// 4-tensor test model must refuse, each with the text its one error reply
// names the refusal by.
func hostileFrames() map[string]struct {
	frame []byte
	want  string
} {
	push := 4 * 131
	badMagic := rawFrame(kindPull, 0, -1, nil)
	copy(badMagic, "GOB")
	return map[string]struct {
		frame []byte
		want  string
	}{
		"bad magic":         {badMagic, errBadMagic.Error()},
		"unknown kind":      {rawFrame(99, 0, 0, nil), errUnknownKind.Error()},
		"reply as request":  {rawFrame(statusWeights, 0, 0, nil), errUnknownKind.Error()},
		"rank too large":    {rawFrame(kindPush, 2, 0, make([]byte, push)), "outside [0, 2)"},
		"negative rank":     {rawFrame(kindPush, -1, 0, make([]byte, push)), "outside [0, 2)"},
		"push too long":     {rawFrame(kindPush, 0, 0, make([]byte, push+4)), errBadLength.Error()},
		"push too short":    {rawFrame(kindPush, 0, 0, make([]byte, push-4)), errBadLength.Error()},
		"fp16 at fp32 size": {rawFrame(kindPush16, 0, 0, make([]byte, push)), errBadLength.Error()},
		"int8 sans scales":  {rawFrame(kindPush8, 0, 0, make([]byte, 131)), errBadLength.Error()},
		"pull with payload": {rawFrame(kindPull, 0, -1, make([]byte, 8)), errBadLength.Error()},
		"huge length":       {append(rawFrame(kindPush, 0, 0, nil)[:12], 0xf0, 0xff, 0xff, 0xff), errBadLength.Error()},
		"truncated payload": {rawFrame(kindPush, 0, 0, make([]byte, push))[:psHeaderLen+push/2], "read push payload"},
		"truncated header":  {rawFrame(kindPull, 0, -1, nil)[:7], io.ErrUnexpectedEOF.Error()},
		// A handshake's one payload is its fingerprint.
		"handshake sans fingerprint": {rawFrame(kindHandshake, 0, -1, nil), errBadLength.Error()},
		"handshake too long":         {rawFrame(kindHandshake, 0, -1, make([]byte, 2*psFingerprintLen)), errBadLength.Error()},
		"truncated fingerprint":      {rawFrame(kindHandshake, 0, -1, make([]byte, psFingerprintLen))[:psHeaderLen+3], "read handshake fingerprint"},
	}
}

func TestPSFailsClosedOnHostileFrames(t *testing.T) {
	s, _ := startPS(t, 2, 13)
	for name, c := range hostileFrames() {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := conn.Write(c.frame); err != nil {
				t.Fatal(err)
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			// Exactly one error frame, then the server hangs up.
			all, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("the server must close the connection: %v", err)
			}
			runtime.ReadMemStats(&after)
			h, err := readHeader(bytes.NewReader(all))
			if err != nil || h.kind != statusError || int(h.length) != len(all)-psHeaderLen || h.length > psMaxErr {
				t.Fatalf("reply %q is not one error frame (header %+v, err %v)", all, h, err)
			}
			if msg := string(all[psHeaderLen:]); !strings.Contains(msg, c.want) {
				t.Fatalf("error reply %q does not name %q", msg, c.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("refusing the frame allocated %d bytes", grew)
			}
		})
	}
	if s.Version() != 0 {
		t.Fatalf("refused frames advanced the server to version %d", s.Version())
	}
}

func TestPSClientFailsClosedOnHostileReplies(t *testing.T) {
	long := rawFrame(statusError, 0, 0, bytes.Repeat([]byte("x"), psMaxErr+1))
	badMagic := rawFrame(statusUnchanged, 0, -1, nil)
	copy(badMagic, "XYZ")
	// One unnamed tensor of five scalars announced, three delivered.
	short := rawFrame(statusWeights, 0, 1, append([]byte{1, 0, 0, 0, 0, 1, 5, 0, 0, 0}, make([]byte, 12)...))
	for name, c := range map[string]struct {
		reply []byte
		want  error
	}{
		"error over 256 bytes":  {long, errLongError},
		"bad magic":             {badMagic, errBadMagic},
		"unknown status":        {rawFrame(kindPush, 0, 0, nil), errUnknownKind},
		"layout past the frame": {short, errBadLength},
	} {
		t.Run(name, func(t *testing.T) {
			srv, cli := net.Pipe()
			defer srv.Close()
			count := newCountingConn(cli)
			client := newPSClient(cli, count, count, count)
			defer client.Close()
			go func() {
				// Swallow the push, answer with the hostile reply.
				_, _ = io.CopyN(io.Discard, srv, psHeaderLen+4*3)
				_, _ = srv.Write(c.reply)
			}()
			if _, _, err := client.PushRanked(0, CompressNone, [][]float32{{1, 2, 3}}); !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
			if _, _, err := client.Pull(); err == nil {
				t.Fatal("the client must close a connection it read a hostile reply on")
			}
		})
	}
}

// fuzzGrain is FuzzPSFrame's range size: the 131-scalar test model (fc1
// 64 + 16, fc2 48 + 3) cut every 32 scalars, so ranges end on a tensor
// boundary (64, 128), inside one (32, 96) and short (128..131).
const fuzzGrain = 32

// FuzzPSFrame throws byte streams at a live serveConn: whatever arrives,
// the handler must return once the client hangs up — no panic, no hang —
// having allocated no more than the model and the input account for.
// Every input meets a fresh one-worker server whose pushes are decoded in
// fuzzGrain ranges, so a push that breaks off after a range was applied
// fails that server and no other input. The seeds added below are single
// frames; testdata/fuzz/FuzzPSFrame holds multi-frame streams (valid
// exchanges, and valid frames followed by a truncated, misaddressed or
// foreign one).
func FuzzPSFrame(f *testing.F) {
	// One worker: a well-formed push completes its round alone, so no
	// handler parks waiting for a peer the fuzzer will never send.
	newServer := func() *PSServer {
		params := mlpConstructor(14)().Params()
		s := newPSServer(params, optim.NewSGD(0.1), 1, false, -1)
		s.ranges = cutRanges(params, fuzzGrain)
		return s
	}
	s := newServer()
	model := 4 * s.elems

	f.Add(rawFrame(kindPull, 0, -1, nil))
	f.Add(rawFrame(kindHandshake, 0, -1, make([]byte, psFingerprintLen)))
	push := rawFrame(kindPush, 0, 0, make([]byte, model))
	f.Add(push)
	push8 := rawFrame(kindPush8, 0, 0, make([]byte, s.elems+4*len(s.sizes)))
	f.Add(push8)
	for _, c := range hostileFrames() {
		f.Add(c.frame)
	}
	f.Add(push[:psHeaderLen+4*(fuzzGrain+fuzzGrain/2)]) // truncated mid-range
	f.Add(push[:psHeaderLen+4*3*fuzzGrain])             // truncated on a range boundary inside fc2's weights
	f.Add(push8[:psHeaderLen+4+s.sizes[0]+2])           // cut inside the second tensor's scale

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := newServer()
		srv, cli := net.Pipe()
		served, drained := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(served)
			s.serveConn(newPSConn(srv))
			srv.Close()
		}()
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, cli)
		}()
		// A closed-pipe error means the server already refused and hung up;
		// a timeout, that it stopped reading without doing so.
		_ = cli.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if _, err := cli.Write(data); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("handler neither read nor hung up for 10 s")
		}
		cli.Close()
		hung := time.NewTimer(10 * time.Second)
		defer hung.Stop()
		select {
		case <-served:
		case <-hung.C:
			t.Fatal("handler still running 10 s after the client hung up")
		}
		<-drained
		runtime.ReadMemStats(&after)
		// The server and its model, connection state (64 KB reader, one push
		// buffer, decode scratch), two reply frames, and slack for what the
		// fuzzing engine itself allocates meanwhile. A buffer sized from a
		// mutated length field would be gigabytes.
		limit := uint64(4<<20 + 4*model + 8*len(data))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("%d input bytes made the server allocate %d, limit %d", len(data), grew, limit)
		}
	})
}
