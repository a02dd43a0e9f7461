package dist

import (
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"tbd/internal/graph"
	"tbd/internal/optim"
)

const handshakeSteps = 4

// handshakeRun trains one ps-sync rank of the registry "mlp" model, seed
// 1, against a fresh one-worker server whose master is master, and
// returns the rank's final weights hash and the bytes its client read.
// With fullPull the rank first adopts the server's weights the way every
// rank did before the handshake: a Pull, on a connection of its own, and
// LoadWeights.
func handshakeRun(t *testing.T, master *graph.Network, fullPull bool) (uint64, int64) {
	t.Helper()
	model, err := RunModelByName("mlp")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := ServePS(l, master.Params(), optim.NewSGD(0.1), 1)
	defer s.Close()
	if build := model.Build; fullPull {
		model.Build = func(seed uint64) *graph.Network {
			n := build(seed)
			p, err := DialPSThrottled(s.Addr(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			weights, _, err := p.Pull()
			if err != nil {
				t.Fatal(err)
			}
			if err := LoadWeights(n.Params(), weights); err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	c, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := trainWorker(WorkerConfig{
		Workers: 1, Strategy: RunPSSync, Model: "mlp", Seed: 1, Steps: handshakeSteps, GlobalBatch: 8, LR: 0.1,
	}, model, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := c.WireBytes()
	return res.net.WeightsHash(), in
}

func TestPSHandshakeMismatchSendsTheWeights(t *testing.T) {
	model, err := RunModelByName("mlp")
	if err != nil {
		t.Fatal(err)
	}
	// The server's master is the run's seed-1 model with one weight moved,
	// so a rank that built seed 1 holds weights that are not the server's.
	// The move is large enough that a rank which trained its first step on
	// its own weights lands elsewhere: a one-ulp change can vanish in that
	// step's gradient, after which every push reply is the server's.
	perturbed := func() *graph.Network {
		n := model.Build(1)
		n.Params()[0].Value.Data()[0] += 0.5
		return n
	}
	seed1 := model.Build(1)
	_, payload, err := weightsLayout(seed1.Params())
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(psHeaderLen + payload)

	mismatched, in := handshakeRun(t, perturbed(), false)
	if want := (1 + handshakeSteps) * frame; in != want {
		t.Fatalf("mismatched rank read %d bytes, want %d: the handshake reply must be a full %d-byte frame", in, want, frame)
	}
	fullPull, in := handshakeRun(t, perturbed(), true)
	if want := psHeaderLen + handshakeSteps*frame; in != want {
		t.Fatalf("full-pull rank read %d bytes, want %d: after its pull the handshake reply must be a bare header", in, want)
	}
	if mismatched != fullPull {
		t.Fatalf("mismatched handshake ended on %#x, a full-pull run on %#x", mismatched, fullPull)
	}
	// The trajectory a rank that kept its own seed-1 weights follows.
	if kept, _ := handshakeRun(t, seed1, false); kept == mismatched {
		t.Fatalf("the server's weights and the rank's own ended on one hash %#x", kept)
	}
}

func TestPSHandshakeAfterVersionZeroGetsTheWeights(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := mlpConstructor(15)()
	s := ServeBoundedAsyncPS(l, master.Params(), optim.NewSGD(0.1), 2, -1)
	defer s.Close()
	dial := func() *PSClient {
		c, err := DialPSThrottled(s.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	// Every client holds version 0's weights: a replica from the seed.
	replica := mlpConstructor(15)().Params()
	early, pusher, late := dial(), dial(), dial()
	if weights, version, err := early.Handshake(replica); err != nil || weights != nil || version != 0 {
		t.Fatalf("handshake at version 0: %d tensors, version %d, err %v; want none, 0", len(weights), version, err)
	}
	if _, _, err := pusher.PushRanked(0, CompressNone, GradSlices(replica)); err != nil {
		t.Fatal(err)
	}
	weights, version, err := late.Handshake(replica)
	if err != nil || version != 1 {
		t.Fatalf("handshake after one async push: version %d, err %v; want 1", version, err)
	}
	for i, p := range master.Params() {
		for j, v := range p.Value.Data() {
			if math.Float32bits(weights[i][j]) != math.Float32bits(v) {
				t.Fatalf("weight %d[%d]: handshake brought %v, server holds %v", i, j, weights[i][j], v)
			}
		}
	}
	// The client that got weights retains them like a pull would.
	if again, version, err := late.Pull(); err != nil || version != 1 || &again[0][0] != &weights[0][0] {
		t.Fatalf("pull after the handshake: version %d, err %v; want the retained copy at 1", version, err)
	}
	if _, _, err := late.Handshake(replica); err == nil {
		t.Fatal("a second handshake must be refused by the client")
	}
}

func TestPSClientRefusesAnUnchangedHandshakePastVersionZero(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	count := newCountingConn(cli)
	client := newPSClient(cli, count, count, count)
	defer client.Close()
	go func() {
		// Swallow the handshake, claim the client's weights are version 3.
		_, _ = io.CopyN(io.Discard, srv, psHeaderLen+psFingerprintLen)
		_, _ = srv.Write(rawFrame(statusUnchanged, 0, 3, nil))
	}()
	if _, _, err := client.Handshake(mlpConstructor(16)().Params()); err == nil || !strings.Contains(err.Error(), "unchanged at version 3") {
		t.Fatalf("got %v, want the unchanged reply at version 3 refused", err)
	}
}
