package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"

	"tbd/internal/graph"
)

// WriteCheckpoint writes n's weights to w as a checkpoint at step: the
// statusWeights frame a parameter server at version step would send,
// built from the server's own pieces. tbdserve's /swap loads one.
//
//tbd:api the writer of the format LoadCheckpoint (tbdserve /swap) reads; the checkpoint tests pin the pair
func WriteCheckpoint(w io.Writer, n *graph.Network, step int64) error {
	if step < 0 || step > math.MaxInt32 {
		return fmt.Errorf("dist: checkpoint step %d outside [0, %d]", step, math.MaxInt32)
	}
	table, length, err := weightsLayout(n.Params())
	if err != nil {
		return err
	}
	frame := net.Buffers{append(make([]byte, psHeaderLen), table...)}
	putHeader(frame[0], statusWeights, 0, int(step), length)
	for _, p := range n.Params() {
		frame = append(frame, f32Bytes(p.Value.Data()))
	}
	_, err = frame.WriteTo(w)
	return err
}

// LoadCheckpoint reads a checkpoint WriteCheckpoint wrote into n and
// returns its step. It loads all of it or nothing: before it reads a
// weight it checks the magic, the kind, the step, and every tensor's
// name and shape against n (so the length too), and it refuses a byte
// past the frame before it writes a weight into n. A frozen n is refused
// first: its frozen matrices are no longer parameters a load could write
// (load, then freeze; serve.Fleet.Swap does).
func LoadCheckpoint(r io.Reader, n *graph.Network) (int64, error) {
	fail := func(err error) (int64, error) { return 0, fmt.Errorf("dist: load checkpoint: %w", err) }
	if n.Frozen() {
		return fail(errFrozenNetwork)
	}
	br := bufio.NewReader(r)
	h, err := readHeader(br)
	switch {
	case err == io.EOF:
		return fail(io.ErrUnexpectedEOF)
	case err != nil:
		return fail(err)
	case h.kind != statusWeights:
		return fail(fmt.Errorf("%w %d, want a weights frame", errUnknownKind, h.kind))
	case h.version < 0:
		return fail(fmt.Errorf("%w %d", errNegativeStep, h.version))
	}
	want, _, _ := weightsLayout(n.Params()) // nil, matching no table, for a model no layout fits
	var buf wireBuf
	table, sizes, err := readLayout(br, &buf, nil, h.length)
	if err != nil {
		return fail(err)
	}
	// A table that is the model's accounts for exactly its payload length.
	if !bytes.Equal(table, want) {
		return fail(fmt.Errorf("%w: %d tensors that are not the model's %d names and shapes", errLayoutMismatch, len(sizes), len(n.Params())))
	}
	weights := make([]float32, (h.length-int64(len(table)))/4)
	if err := buf.readF32(br, weights); err != nil {
		return fail(fmt.Errorf("read weights: %w", err))
	}
	if _, err := io.ReadFull(br, make([]byte, 1)); err == nil {
		return fail(errTrailingBytes)
	} else if err != io.EOF {
		return fail(fmt.Errorf("after the frame: %w", err))
	}
	for _, p := range n.Params() {
		weights = weights[copy(p.Value.Data(), weights):]
	}
	return int64(h.version), nil
}
