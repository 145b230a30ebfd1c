package lstm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

func TestSerializeRoundTrip(t *testing.T) {
	n := testNet(t, 12, 20, 3, 5, 71)
	n.Gate = tensor.ActHardSigmoid
	var buf bytes.Buffer
	written, err := n.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if written != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", written, buf.Len())
	}
	got, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gate != tensor.ActHardSigmoid {
		t.Fatal("gate activation lost")
	}
	// Bit-identical behaviour on a random input.
	xs := testSeqs(rng.New(72), 12, 7, 1)[0]
	a := n.Run(xs, Baseline())
	b := got.Run(xs, Baseline())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded network differs at logit %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSerializeSizeIsExact(t *testing.T) {
	n := testNet(t, 8, 8, 1, 2, 73)
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// header 7*4 + params*4 bytes.
	want := 28 + int(n.Params())*4
	if buf.Len() != want {
		t.Fatalf("serialized %d bytes, want %d", buf.Len(), want)
	}
}

func TestReadNetworkRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a network"),
		{0, 0, 0, 0, 0, 0, 0, 0},
	}
	for i, c := range cases {
		if _, err := ReadNetwork(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadNetworkRejectsBadVersion(t *testing.T) {
	n := testNet(t, 4, 4, 1, 2, 74)
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version field
	if _, err := ReadNetwork(bytes.NewReader(b)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReadNetworkRejectsTruncation(t *testing.T) {
	n := testNet(t, 6, 6, 2, 3, 75)
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadNetwork(bytes.NewReader(b)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// headerOnly returns a bare 28-byte header claiming the given shape,
// with no weight payload behind it.
func headerOnly(layers, input, hidden, classes uint32) []byte {
	var buf bytes.Buffer
	for _, v := range []uint32{netMagic, netVersion, 0, layers, input, hidden, classes} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// TestReadNetworkAllocatesWhatArrives pins that a header's claimed
// shape is not allocated up-front: hidden=4096 claims 64 MiB per
// recurrent matrix, but with no payload the reader must fail having
// allocated almost nothing.
func TestReadNetworkAllocatesWhatArrives(t *testing.T) {
	hdr := headerOnly(1, 1, 4096, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadNetwork(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header without payload accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a bare header allocated %d bytes, want < 1 MiB", grew)
	}
}

func TestWriteToRejectsInvalid(t *testing.T) {
	n := testNet(t, 4, 4, 1, 2, 76)
	n.HeadBias = tensor.NewVector(99)
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err == nil {
		t.Fatal("invalid network serialized")
	}
}
