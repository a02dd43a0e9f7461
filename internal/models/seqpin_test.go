package models

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// seqPin is one recurrent or attention twin's fingerprint: the weights
// after five clipped Adam steps on one fixed batch, and one eval-mode
// forward of the trained network on that batch.
type seqPin struct{ weights, forward uint64 }

// seqPins were recorded on the commit before the recurrent layers moved
// onto one BPTT driver and the two attention layers onto one core; a
// rewrite of those layers must reproduce every one of them unchanged.
// GEMM tiers round differently, so each tier has its own constants (the
// sse kernels are bit-exact with ref by contract, hence one shared set).
var seqPins = map[string]map[string]seqPin{
	"ref":  seqPinsExact,
	"sse":  seqPinsExact,
	"avx2": seqPinsFMA,
}

var seqPinsExact = map[string]seqPin{
	"Seq2Seq":        {0x364afc79458fae12, 0x16d0ed9581cca05},
	"DeepSpeech":     {0x3f2d8038d4be8a6, 0xbb29fe8436829ae3},
	"DeepSpeechCTC":  {0x829ffd417d5d8be7, 0xd7a530f103aff7cd},
	"Transformer":    {0xd651c5f414115bb, 0x5351a2d727d14d99},
	"EncoderDecoder": {0xeb31bc99cc059fe9, 0xf62eda95f8e34025},
}

var seqPinsFMA = map[string]seqPin{
	"Seq2Seq":        {0x2b62f7d0a7fb9b72, 0x797b80f8b8378ff8},
	"DeepSpeech":     {0xec83a3475f435aa5, 0xa4ce531ca80e083b},
	"DeepSpeechCTC":  {0x319b8851813876d6, 0xbdf1dafda46d78e9},
	"Transformer":    {0x29186b9c582c5b0e, 0x29fdc23bfade5810},
	"EncoderDecoder": {0x659669940a2decd4, 0x7848f57e26560e08},
}

// bitsHash is graph.Network.WeightsHash over arbitrary tensors.
func bitsHash(ts ...*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, t := range ts {
		for _, v := range t.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			_, _ = h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func paramsHash(ps []*layers.Param) uint64 {
	vals := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		vals[i] = p.Value
	}
	return bitsHash(vals...)
}

// seqTwins builds each pinned twin from a fixed seed and returns, per
// twin, a closure that trains it five steps and fingerprints it.
func seqTwins() map[string]func() seqPin {
	classifier := func(net *graph.Network, x *tensor.Tensor, labels []int) seqPin {
		opt := optim.NewAdam(0.01)
		for i := 0; i < 5; i++ {
			graph.TrainClassifierStep(net, opt, x, labels, 5)
		}
		return seqPin{paramsHash(net.Params()), bitsHash(net.Forward(x, false))}
	}
	return map[string]func() seqPin{
		"Seq2Seq": func() seqPin {
			rng := tensor.NewRNG(71)
			b := data.NewTranslationSource(rng, 12, 6).Batch(8)
			return classifier(NumericSeq2Seq(rng, 12, 12, 24), b.Src, b.Targets)
		},
		"DeepSpeech": func() seqPin {
			rng := tensor.NewRNG(72)
			b := data.NewAudioSource(rng, 12, 6, 7, 0.3).Batch(8)
			return classifier(NumericDeepSpeech(rng, 12, 20, 6), b.X, b.Labels)
		},
		"DeepSpeechCTC": func() seqPin {
			rng := tensor.NewRNG(73)
			b := data.NewAudioSource(rng, 12, 6, 9, 0.3).Batch(8)
			labels := make([][]int, 8)
			for i := range labels {
				labels[i] = []int{1 + i%5, 1 + (i+2)%5, 1 + (i+3)%5}
			}
			net := NumericDeepSpeechCTC(rng, 12, 16, 6)
			opt := optim.NewAdam(0.01)
			for i := 0; i < 5; i++ {
				DeepSpeechCTCStep(net, opt, b.X, labels, 5)
			}
			return seqPin{paramsHash(net.Params()), bitsHash(net.Forward(b.X, false))}
		},
		"Transformer": func() seqPin {
			rng := tensor.NewRNG(74)
			b := data.NewTranslationSource(rng, 12, 6).Batch(8)
			return classifier(NumericTransformer(rng, 12, 16, 2), b.Src, b.Targets)
		},
		"EncoderDecoder": func() seqPin {
			// Source and target lengths differ, so a core that confuses
			// the query and memory time axes cannot reproduce the hash.
			rng := tensor.NewRNG(75)
			const n, te, td, vocab = 8, 6, 4, 9
			src, tgtIn := tensor.New(n, te), tensor.New(n, td)
			targets := make([]int, n*td)
			for i := 0; i < n; i++ {
				for p := 0; p < te; p++ {
					src.Set(float32(1+rng.Intn(vocab-1)), i, p)
				}
				for p := 0; p < td; p++ {
					targets[i*td+p] = int(src.At(i, te-1-p))
					if p > 0 {
						tgtIn.Set(float32(targets[i*td+p-1]), i, p)
					}
				}
			}
			m := NewEncoderDecoder(rng, vocab, 16, 2)
			opt := optim.NewAdam(0.01)
			for i := 0; i < 5; i++ {
				m.Step(opt, src, tgtIn, targets, 5)
			}
			return seqPin{paramsHash(m.Params()), bitsHash(m.Forward(src, tgtIn, false))}
		},
	}
}

func TestSequenceTwinTrajectoriesPinned(t *testing.T) {
	// Released buffers are filled with NaN, so a layer that reads a
	// temporary after releasing it, or trusts a dirty buffer it has not
	// fully written, moves a hash too.
	eachGemmTierPoisoned(t, func(t *testing.T, tier string) {
		for name, run := range seqTwins() {
			if got, want := run(), seqPins[tier][name]; got != want {
				t.Errorf("%s/%s: weights %#x forward %#x, pinned %#x / %#x",
					tier, name, got.weights, got.forward, want.weights, want.forward)
			}
		}
	})
}

// eachGemmTierPoisoned runs check as a subtest under every GEMM tier the
// host has, with released buffers filled with NaN.
func eachGemmTierPoisoned(t *testing.T, check func(t *testing.T, tier string)) {
	defer tensor.SetDebugPoisonReleased(tensor.SetDebugPoisonReleased(true))
	for _, tier := range []string{"ref", "sse", "avx2"} {
		t.Run(tier, func(t *testing.T) {
			prev, err := tensor.SetGemmKernelTier(tier)
			if err != nil {
				t.Skipf("tier %s: %v", tier, err)
			}
			defer func() { _, _ = tensor.SetGemmKernelTier(prev) }()
			check(t, tier)
		})
	}
}
