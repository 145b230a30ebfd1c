package lstm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mobilstm/internal/tensor"
)

// Binary network format: a little-endian stream with a magic/version
// header, the shape descriptor, and raw float32 weight data in a fixed
// order. The format is self-describing enough to validate on load and
// stable across runs, so calibrated synthetic models can be stored and
// shipped like trained checkpoints.
const (
	netMagic   = 0x4d4c5354 // "MLST"
	netVersion = 1
)

// WriteTo serializes the network.
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	if err := n.Validate(); err != nil {
		return 0, fmt.Errorf("lstm: refusing to serialize invalid network: %w", err)
	}
	cw := &countWriter{w: bufio.NewWriter(w)}
	hdr := []uint32{
		netMagic, netVersion,
		uint32(n.Gate),
		uint32(len(n.Layers)),
		uint32(n.Input()), uint32(n.Hidden()), uint32(n.Classes()),
	}
	for _, v := range hdr {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	for _, l := range n.Layers {
		for _, m := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo, l.Uf, l.Ui, l.Uc, l.Uo} {
			if err := writeFloats(cw, m.Data); err != nil {
				return cw.n, err
			}
		}
		for _, b := range []tensor.Vector{l.Bf, l.Bi, l.Bc, l.Bo} {
			if err := writeFloats(cw, b); err != nil {
				return cw.n, err
			}
		}
	}
	if err := writeFloats(cw, n.Head.Data); err != nil {
		return cw.n, err
	}
	if err := writeFloats(cw, n.HeadBias); err != nil {
		return cw.n, err
	}
	bw := cw.w.(*bufio.Writer)
	return cw.n, bw.Flush()
}

// ReadNetwork deserializes a network written by WriteTo.
func ReadNetwork(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	var hdr [7]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("lstm: reading header: %w", err)
		}
	}
	if hdr[0] != netMagic {
		return nil, fmt.Errorf("lstm: bad magic %#x", hdr[0])
	}
	if hdr[1] != netVersion {
		return nil, fmt.Errorf("lstm: unsupported version %d", hdr[1])
	}
	var err error
	gate := tensor.Activation(hdr[2])
	layers, input, hidden, classes := int(hdr[3]), int(hdr[4]), int(hdr[5]), int(hdr[6])
	const maxDim = 1 << 20
	if layers < 1 || layers > 1024 || input < 1 || input > maxDim ||
		hidden < 1 || hidden > maxDim || classes < 1 || classes > maxDim {
		return nil, fmt.Errorf("lstm: implausible shape %dx%dx%dx%d", layers, input, hidden, classes)
	}
	// The header only claims a shape: storage grows with the bytes that
	// actually arrive, so a short stream behind a huge header fails
	// after allocating no more than it delivered.
	n := &Network{Gate: gate}
	in := input
	for i := 0; i < layers; i++ {
		var ms [8]*tensor.Matrix // W_{f,i,c,o} (hidden × in), then U_{f,i,c,o}
		for k := range ms {
			cols := hidden
			if k < 4 {
				cols = in
			}
			if ms[k], err = readMatrix(br, hidden, cols); err != nil {
				return nil, err
			}
		}
		var bs [4]tensor.Vector
		for k := range bs {
			if bs[k], err = readFloats(br, hidden); err != nil {
				return nil, err
			}
		}
		n.Layers = append(n.Layers, &Layer{
			Hidden: hidden, Input: in,
			Wf: ms[0], Wi: ms[1], Wc: ms[2], Wo: ms[3],
			Uf: ms[4], Ui: ms[5], Uc: ms[6], Uo: ms[7],
			Bf: bs[0], Bi: bs[1], Bc: bs[2], Bo: bs[3],
		})
		in = hidden
	}
	if n.Head, err = readMatrix(br, classes, hidden); err != nil {
		return nil, err
	}
	if n.HeadBias, err = readFloats(br, classes); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("lstm: loaded network invalid: %w", err)
	}
	return n, nil
}

func writeFloats(w io.Writer, xs []float32) error {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	_, err := w.Write(buf)
	return err
}

// readChunk bounds how many floats readFloats decodes (and grows its
// storage by) per read.
const readChunk = 1 << 14

// readFloats reads count little-endian float32 values, growing the
// result only as the data arrives.
func readFloats(r io.Reader, count int) (tensor.Vector, error) {
	out := make(tensor.Vector, 0, min(count, readChunk))
	buf := make([]byte, 4*min(count, readChunk))
	for len(out) < count {
		k := min(count-len(out), readChunk)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return nil, fmt.Errorf("lstm: reading weights: %w", err)
		}
		if len(out)+k > cap(out) {
			grown := make(tensor.Vector, len(out), min(count, max(2*cap(out), len(out)+k)))
			copy(grown, out)
			out = grown
		}
		for i := 0; i < k; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return out, nil
}

// readMatrix reads a rows × cols matrix with readFloats.
func readMatrix(r io.Reader, rows, cols int) (*tensor.Matrix, error) {
	data, err := readFloats(r, rows*cols)
	if err != nil {
		return nil, err
	}
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
