package graph

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"tbd/internal/optim"
)

// Checkpointing: serialize a network's trainable state so long training
// runs (days at paper scale, §3.3) can stop and resume. The format is a
// versioned gob stream of named parameter payloads; loading validates
// names and shapes against the live network, so architecture drift is
// caught instead of silently mis-restored.

// checkpointMagic guards against feeding arbitrary gob streams in.
const checkpointMagic = "tbd-checkpoint-v1"

// checkpointFile is the serialized form.
type checkpointFile struct {
	Magic  string
	Name   string
	Step   int64
	Params []checkpointParam
	// Optimizer holds stateful-optimizer slots when saved with
	// SaveCheckpointWithOptimizer (nil Kind otherwise).
	Optimizer optim.OptimizerState
}

type checkpointParam struct {
	Name  string
	Shape []int
	Data  []float32
}

// snapshot copies n's parameters into a checkpoint.
func snapshot(n *Network, step int64) checkpointFile {
	file := checkpointFile{Magic: checkpointMagic, Name: n.Name, Step: step}
	for _, p := range n.Params() {
		file.Params = append(file.Params, checkpointParam{
			Name:  p.Name,
			Shape: append([]int(nil), p.Value.Shape()...),
			Data:  append([]float32(nil), p.Value.Data()...),
		})
	}
	return file
}

// SaveCheckpoint writes the network's parameters (and a step counter) to
// w.
//
//tbd:api the writer of the format LoadCheckpoint (tbdserve /swap) reads; TestCheckpointRoundTrip pins the pair
func SaveCheckpoint(w io.Writer, n *Network, step int64) error {
	file := snapshot(n, step)
	return gob.NewEncoder(w).Encode(&file)
}

// SaveCheckpointWithOptimizer writes the network and a stateful
// optimizer's slots together, so stateful training (Momentum, Adam,
// RMSProp) resumes on the exact trajectory.
//
//tbd:api exact resume: TestCheckpointWithOptimizerExactAdamResume pins a restored Adam to the uninterrupted trajectory
func SaveCheckpointWithOptimizer(w io.Writer, n *Network, opt optim.Stateful, step int64) error {
	file := snapshot(n, step)
	file.Optimizer = opt.Snapshot(n.Params())
	return gob.NewEncoder(w).Encode(&file)
}

// readCheckpoint decodes a checkpoint and checks it against n without
// touching n: every parameter must match by name, order and shape.
func readCheckpoint(r io.Reader, n *Network) (*checkpointFile, error) {
	var file checkpointFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("graph: decode checkpoint: %w", err)
	}
	if file.Magic != checkpointMagic {
		return nil, fmt.Errorf("graph: not a tbd checkpoint (magic %q)", file.Magic)
	}
	params := n.Params()
	if len(file.Params) != len(params) {
		return nil, fmt.Errorf("graph: checkpoint has %d parameters, network has %d", len(file.Params), len(params))
	}
	for i, cp := range file.Params {
		p := params[i]
		if cp.Name != p.Name {
			return nil, fmt.Errorf("graph: parameter %d is %q in checkpoint but %q in network", i, cp.Name, p.Name)
		}
		if !slices.Equal(cp.Shape, p.Value.Shape()) {
			return nil, fmt.Errorf("graph: parameter %q shape %v in checkpoint, %v in network", cp.Name, cp.Shape, p.Value.Shape())
		}
		if len(cp.Data) != p.Value.Numel() {
			return nil, fmt.Errorf("graph: parameter %q has %d elements in checkpoint, %d in network", cp.Name, len(cp.Data), p.Value.Numel())
		}
	}
	return &file, nil
}

// install copies a checkpoint readCheckpoint has accepted into n.
func (file *checkpointFile) install(n *Network) {
	for i, p := range n.Params() {
		copy(p.Value.Data(), file.Params[i].Data)
	}
}

// LoadCheckpoint restores parameters saved by SaveCheckpoint into n and
// returns the stored step counter.
func LoadCheckpoint(r io.Reader, n *Network) (int64, error) {
	file, err := readCheckpoint(r, n)
	if err != nil {
		return 0, err
	}
	file.install(n)
	return file.Step, nil
}

// LoadCheckpointWithOptimizer restores both network weights and optimizer
// state written by SaveCheckpointWithOptimizer.
//
//tbd:api see SaveCheckpointWithOptimizer
func LoadCheckpointWithOptimizer(r io.Reader, n *Network, opt optim.Stateful) (int64, error) {
	file, err := readCheckpoint(r, n)
	if err != nil {
		return 0, err
	}
	if file.Optimizer.Kind == "" {
		return 0, fmt.Errorf("graph: checkpoint has no optimizer state")
	}
	file.install(n)
	if err := opt.Restore(n.Params(), file.Optimizer); err != nil {
		return 0, err
	}
	return file.Step, nil
}
