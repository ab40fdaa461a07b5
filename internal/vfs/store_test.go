package vfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestTruncateReusesOwnedStore: truncating a file whose store nobody else
// holds keeps the array, so rewriting the same size needs no new one,
// and the kept capacity reads as zeros.
func TestTruncateReusesOwnedStore(t *testing.T) {
	fs := New()
	n, _ := fs.Create("/f")
	payload := bytes.Repeat([]byte{7}, 10<<10)
	n.WriteData(0, payload)
	before := &n.data[0]
	for i := 0; i < 3; i++ {
		n.Truncate()
		n.WriteData(0, payload)
		if &n.data[0] != before {
			t.Fatalf("rewrite %d after truncate moved the owned store", i)
		}
	}
	n.Truncate()
	if n.Size() != 0 {
		t.Fatalf("size after truncate = %d", n.Size())
	}
	// A sparse write into the kept capacity reads its gap as zeros.
	n.WriteData(100, []byte("z"))
	buf := make([]byte, 101)
	if k := n.ReadAt(buf, 0); k != 101 || !bytes.Equal(buf[:100], make([]byte, 100)) || buf[100] != 'z' {
		t.Fatalf("sparse write after truncate read %d bytes: %v", k, buf)
	}
}

// TestTruncateKeepsHandedOutBytes: bytes Data handed out are never
// rewritten, neither by a truncate-and-rewrite nor by an overwrite in
// place, and ReadAt hands nothing out, so it does not stop the reuse.
func TestTruncateKeepsHandedOutBytes(t *testing.T) {
	fs := New()
	n, _ := fs.Create("/app")
	n.WriteData(0, []byte("version-one"))
	held := n.Data()
	n.Truncate()
	n.WriteData(0, []byte("version-two"))
	if string(held) != "version-one" {
		t.Fatalf("truncate + rewrite reached the handed-out bytes: %q", held)
	}
	if &n.data[0] == &held[0] {
		t.Fatal("the rewrite kept the handed-out array")
	}
	held = n.Data()
	n.WriteData(0, []byte("VERSION"))
	if string(held) != "version-two" {
		t.Fatalf("an overwrite reached the handed-out bytes: %q", held)
	}
	// Copying out through ReadAt leaves the store owned: the next
	// truncate keeps it.
	buf := make([]byte, 32)
	n.ReadAt(buf, 0)
	kept := &n.data[0]
	n.Truncate()
	n.WriteData(0, []byte("x"))
	if &n.data[0] != kept {
		t.Fatal("ReadAt counted as handing the store out")
	}
}

// TestStoreMatchesByteModel runs seeded random creat/truncate, write,
// sparse write, SetData, Data and ReadAt sequences against a plain
// []byte model, from a fresh file, a WriteFileShared image and a clone of
// a frozen template. After every step the file reads as the model, its
// spare capacity reads as zeros, and every slice Data handed out and
// every shared image still hold the bytes they had.
func TestStoreMatchesByteModel(t *testing.T) {
	type held struct {
		b    []byte
		want string
	}
	starts := []string{"fresh", "shared", "clone"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := starts[seed%int64(len(starts))]
		var n *Node
		var model []byte
		var pinned []held
		switch start {
		case "fresh":
			n, _ = New().Create("/f")
		case "shared":
			img := []byte("shared-image-bytes")
			fs := New()
			if err := fs.WriteFileShared("/f", img); err != nil {
				t.Fatal(err)
			}
			n, _ = fs.Lookup("/f")
			model = append(model, img...)
			pinned = append(pinned, held{img, string(img)})
		case "clone":
			tmpl := New()
			if err := tmpl.WriteFile("/f", []byte("template-bytes")); err != nil {
				t.Fatal(err)
			}
			tmpl.Freeze()
			tn, _ := tmpl.Lookup("/f")
			n, _ = tmpl.Clone().Lookup("/f")
			model = append(model, "template-bytes"...)
			pinned = append(pinned, held{tn.data, "template-bytes"})
		}
		for step := 0; step < 200; step++ {
			var desc string
			switch op := rng.Intn(10); {
			case op < 2:
				desc = "truncate"
				n.Truncate()
				model = model[:0]
			case op < 5:
				off := rng.Intn(len(model) + 1)
				b := randBytes(rng, 1+rng.Intn(64))
				desc = fmt.Sprintf("write %d@%d", len(b), off)
				n.WriteData(int64(off), b)
				model = writeModel(model, off, b)
			case op < 6:
				off := len(model) + 1 + rng.Intn(48)
				b := randBytes(rng, 1+rng.Intn(16))
				desc = fmt.Sprintf("sparse write %d@%d", len(b), off)
				n.WriteData(int64(off), b)
				model = writeModel(model, off, b)
			case op < 7:
				b := randBytes(rng, rng.Intn(40))
				desc = fmt.Sprintf("setdata %d", len(b))
				n.SetData(b)
				model = append(model[:0], b...)
			case op < 9:
				desc = "data"
				d := n.Data()
				if string(d) != string(model) {
					t.Fatalf("seed %d (%s) step %d: Data = %q, model %q", seed, start, step, d, model)
				}
				pinned = append(pinned, held{d, string(d)})
			default:
				off := rng.Intn(len(model) + 2)
				buf := make([]byte, rng.Intn(32))
				desc = fmt.Sprintf("readat %d@%d", len(buf), off)
				k := n.ReadAt(buf, int64(off))
				want := 0
				if off < len(model) {
					want = copy(make([]byte, len(buf)), model[off:])
				}
				if k != want || (k > 0 && !bytes.Equal(buf[:k], model[off:off+k])) {
					t.Fatalf("seed %d (%s) step %d: %s read %q (%d), model %q", seed, start, step, desc, buf[:k], k, model)
				}
			}
			if n.Size() != int64(len(model)) || !bytes.Equal(n.data, model) {
				t.Fatalf("seed %d (%s) step %d: after %s file holds %q, model %q", seed, start, step, desc, n.data, model)
			}
			if spare := n.data[len(n.data):cap(n.data)]; !bytes.Equal(spare, make([]byte, len(spare))) {
				t.Fatalf("seed %d (%s) step %d: after %s spare capacity reads %q", seed, start, step, desc, spare)
			}
			for _, h := range pinned {
				if string(h.b) != h.want {
					t.Fatalf("seed %d (%s) step %d: after %s handed-out bytes read %q, were %q", seed, start, step, desc, h.b, h.want)
				}
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(rng.Intn(26))
	}
	return b
}

// writeModel writes b at off into model, zero-filling any gap.
func writeModel(model []byte, off int, b []byte) []byte {
	for len(model) < off+len(b) {
		model = append(model, 0)
	}
	copy(model[off:], b)
	return model
}
