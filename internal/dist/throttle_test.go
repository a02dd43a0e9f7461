package dist

import (
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns a connected localhost TCP pair.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		server, err = l.Accept()
		close(done)
	}()
	client, cerr := net.Dial("tcp", l.Addr().String())
	if cerr != nil {
		t.Fatal(cerr)
	}
	<-done
	if err != nil {
		client.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestThrottleZeroRatePassesThrough(t *testing.T) {
	c, _ := tcpPair(t)
	if Throttle(c, 0) != c {
		t.Fatal("rate 0 must return the conn unchanged")
	}
	if ThrottleShared(c, nil, nil) != c {
		t.Fatal("nil shared buckets must return the conn unchanged")
	}
	if in, out := NewSharedLink(0); in != nil || out != nil {
		t.Fatal("NewSharedLink(0) must return nil buckets")
	}
}

func TestThrottledGoodputWithinTolerance(t *testing.T) {
	// Satellite acceptance: measured goodput within ±15% of the
	// configured rate. 512 KB at 2 MB/s should take ~0.25 s; the initial
	// 16 KB burst shaves ~3% off, well inside the band.
	const rate = 2e6
	const payload = 512 << 10
	c, s := tcpPair(t)
	tc := Throttle(c, rate)

	errc := make(chan error, 1)
	go func() {
		_, err := tc.Write(make([]byte, payload))
		errc <- err
	}()
	start := time.Now()
	if _, err := io.ReadFull(s, make([]byte, payload)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	goodput := payload / elapsed
	if goodput < 0.85*rate || goodput > 1.15*rate {
		t.Fatalf("goodput %.0f B/s outside ±15%% of %.0f B/s (%.3fs for %d bytes)", goodput, float64(rate), elapsed, payload)
	}
}

func TestThrottledReadPacesIngress(t *testing.T) {
	// Reads pace too: pulling 256 KB through a 4 MB/s read throttle must
	// take at least ~75% of the nominal 64 ms.
	const rate = 4e6
	const payload = 256 << 10
	c, s := tcpPair(t)
	tc := Throttle(c, rate)

	go func() {
		_, _ = s.Write(make([]byte, payload))
	}()
	start := time.Now()
	if _, err := io.ReadFull(tc, make([]byte, payload)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	nominal := float64(payload) / rate
	if elapsed < 0.75*nominal {
		t.Fatalf("read finished in %.3fs, under 75%% of nominal %.3fs — throttle not pacing", elapsed, nominal)
	}
}

func TestSharedLinkSplitsBandwidth(t *testing.T) {
	// Two writers through ONE shared egress bucket: total goodput stays
	// at the link rate, so each conn gets roughly half — the parameter
	// server's NIC bottleneck in miniature.
	const rate = 4e6
	const payload = 256 << 10
	in, out := NewSharedLink(rate)
	c1, s1 := tcpPair(t)
	c2, s2 := tcpPair(t)
	t1 := ThrottleShared(c1, in, out)
	t2 := ThrottleShared(c2, in, out)

	start := time.Now()
	errc := make(chan error, 2)
	for _, c := range []net.Conn{t1, t2} {
		go func(c net.Conn) {
			_, err := c.Write(make([]byte, payload))
			errc <- err
		}(c)
	}
	done := make(chan error, 2)
	for _, s := range []net.Conn{s1, s2} {
		go func(s net.Conn) {
			_, err := io.ReadFull(s, make([]byte, payload))
			done <- err
		}(s)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start).Seconds()
	total := 2 * payload / elapsed
	if total > 1.25*rate {
		t.Fatalf("two conns moved %.0f B/s through a %.0f B/s shared link", total, float64(rate))
	}
}

func TestCountingConnCounts(t *testing.T) {
	c, s := tcpPair(t)
	cc := newCountingConn(c)
	if _, err := cc.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(cc, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if in, out := cc.Bytes(); in != 300 || out != 1000 {
		t.Fatalf("counted (in=%d, out=%d), want (300, 1000)", in, out)
	}
}

func TestRingAllReduceTimeScalesWithBandwidth(t *testing.T) {
	// Satellite acceptance: ring all-reduce time on a fixed payload is
	// ~linear in 1/bandwidth. Each rank of a 2-worker ring moves the full
	// payload per round, so 0.5 MB at 8 MB/s vs 2 MB/s should differ by
	// ~4x; accept [2.5, 6] to absorb scheduler noise.
	const elems = 128 << 10 // 0.5 MB of float32
	measure := func(bytesPerSec float64) time.Duration {
		var dur time.Duration
		runRing(t, 2, CompressNone, bytesPerSec, func(r *Ring) {
			flat := make([]float32, elems)
			start := time.Now()
			if err := r.AllReduce(flat); err != nil {
				t.Errorf("rank %d: %v", r.rank, err)
			}
			if r.rank == 0 {
				dur = time.Since(start)
			}
		})
		return dur
	}
	fast := measure(8e6)
	slow := measure(2e6)
	ratio := slow.Seconds() / fast.Seconds()
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("slow/fast = %.2f (%.3fs vs %.3fs), want ~4x in [2.5, 6]", ratio, slow.Seconds(), fast.Seconds())
	}
}
