package data

import (
	"fmt"

	"tbd/internal/tensor"
)

// ImageBatch is one mini-batch of a synthetic image-classification task.
type ImageBatch struct {
	X      *tensor.Tensor // [N, C, H, W]
	Labels []int
}

// ImageSource generates class-conditional synthetic images: each class is
// a distinct spatial template plus Gaussian noise, so classifiers can
// genuinely learn the task (needed for the Figure 2 convergence curves)
// while matching the channel/resolution profile of the real corpus.
type ImageSource struct {
	rng       *tensor.RNG
	c, h, w   int
	classes   int
	noise     float32
	templates []*tensor.Tensor
}

// NewImageSource builds a source of c×h×w images over the given number of
// classes.
func NewImageSource(rng *tensor.RNG, c, h, w, classes int, noise float32) *ImageSource {
	s := &ImageSource{rng: rng, c: c, h: h, w: w, classes: classes, noise: noise}
	for i := 0; i < classes; i++ {
		s.templates = append(s.templates, tensor.RandNormal(rng, 0, 1, c, h, w))
	}
	return s
}

// Batch samples a mini-batch of n labeled images.
func (s *ImageSource) Batch(n int) ImageBatch {
	b := ImageBatch{X: tensor.New(n, s.c, s.h, s.w), Labels: make([]int, n)}
	s.fill(b)
	return b
}

// fill samples len(b.Labels) labeled images into b in place, overwriting
// every element: the same draws, in the same order, as Batch.
func (s *ImageSource) fill(b ImageBatch) {
	per := s.c * s.h * s.w
	x := b.X.Data()
	for i := range b.Labels {
		cls := s.rng.Intn(s.classes)
		b.Labels[i] = cls
		tpl := s.templates[cls].Data()
		dst := x[i*per : (i+1)*per]
		for j := range dst {
			dst[j] = tpl[j] + s.noise*float32(s.rng.Norm())
		}
	}
}

// SeqBatch is one mini-batch of a synthetic sequence-transduction task.
type SeqBatch struct {
	Src *tensor.Tensor // [N, T] token ids as float32
	// Targets are the per-position output tokens, flattened [N*T].
	Targets []int
}

// TranslationSource generates a deterministic toy translation task over a
// vocabulary: the "translation" of token t at position p is
// (t*Mult + p) mod vocab. It is exactly learnable by seq2seq models while
// matching IWSLT15's sentence-length profile.
type TranslationSource struct {
	rng   *tensor.RNG
	vocab int
	T     int
	Mult  int
}

// NewTranslationSource builds the toy translation task.
func NewTranslationSource(rng *tensor.RNG, vocab, seqLen int) *TranslationSource {
	if vocab < 2 {
		panic(fmt.Sprintf("data: vocab %d too small", vocab))
	}
	return &TranslationSource{rng: rng, vocab: vocab, T: seqLen, Mult: 3}
}

// Batch samples n sentence pairs.
func (s *TranslationSource) Batch(n int) SeqBatch {
	src := tensor.New(n, s.T)
	targets := make([]int, n*s.T)
	for i := 0; i < n; i++ {
		for p := 0; p < s.T; p++ {
			tok := s.rng.Intn(s.vocab)
			src.Set(float32(tok), i, p)
			targets[i*s.T+p] = (tok*s.Mult + p) % s.vocab
		}
	}
	return SeqBatch{Src: src, Targets: targets}
}

// AudioBatch is a synthetic speech batch: feature frames plus a per-frame
// symbol alignment (a CTC-free surrogate labeling).
type AudioBatch struct {
	X *tensor.Tensor // [N, T, F]
	// Labels are per-frame symbols, flattened [N*T].
	Labels []int
	// DurationsSec are clip lengths for duration-based throughput.
	DurationsSec []float64
}

// AudioSource generates spectrogram-like sequences where each frame's
// dominant frequency bin encodes its symbol, matching LibriSpeech's
// variable-length clip profile.
//
//tbd:api the input of the CTC twin trajectory pinned in models seqpin_test
type AudioSource struct {
	rng      *tensor.RNG
	features int
	symbols  int
	meanT    int
	noise    float32
}

// NewAudioSource builds a source of feature×T clips over the symbol set.
//
//tbd:api see AudioSource
func NewAudioSource(rng *tensor.RNG, features, symbols, meanT int, noise float32) *AudioSource {
	if symbols > features {
		panic("data: audio symbols cannot exceed feature bins")
	}
	return &AudioSource{rng: rng, features: features, symbols: symbols, meanT: meanT, noise: noise}
}

// Batch samples n clips of exactly meanT frames (fixed length keeps the
// numeric twins simple; the simulator models the length distribution).
func (s *AudioSource) Batch(n int) AudioBatch {
	T := s.meanT
	x := tensor.New(n, T, s.features)
	labels := make([]int, n*T)
	durs := make([]float64, n)
	for i := 0; i < n; i++ {
		durs[i] = float64(T) * 0.04 // 40 ms frames
		for t := 0; t < T; t++ {
			sym := s.rng.Intn(s.symbols)
			labels[i*T+t] = sym
			for f := 0; f < s.features; f++ {
				v := s.noise * float32(s.rng.Norm())
				if f == sym {
					v += 2
				}
				x.Set(v, i, t, f)
			}
		}
	}
	return AudioBatch{X: x, Labels: labels, DurationsSec: durs}
}
