package relmodel

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"indbml/internal/engine/storage"
	"indbml/internal/nn"
)

// FuzzModelTable feeds the model-table decoder what a client can write: a
// small exported model whose META may be bent (units, activation, kind,
// layout, time steps, or arbitrary text) on its way through ParseMeta, and
// whose rows may be overwritten or appended with fuzz keys and weights.
// ParseMeta and Decode must not panic; a failed Decode of a META far wider
// than its table must not have allocated the staging matrices; and a
// successful one must convert to a model nn.Model.Validate accepts.
func FuzzModelTable(f *testing.F) {
	// Byte order: layout, partitions, LSTM or dense and its shape, the
	// layer to bend and how, then row edits.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 3, 3, 1, 1, 0, 6, 0})
	f.Add([]byte{1, 2, 0, 2, 3, 0, 6, 0, 1})
	f.Add([]byte{0, 1, 1, 3, 3, 1, 1, 0, 6, 2, 7, 1, 1, 0, 2, 0, 5})
	f.Add([]byte{1, 0, 1, 1, 1, 0, 0, 0, 1})
	f.Add([]byte{1, 2, 0, 2, 3, 1, 6, 1, 5, 0, 1, 1, 1, 1, 0, 0, 0xc0, 0x7f})
	f.Add([]byte{0, 2, 1, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{0, 0, 1, 2, 2, 2, 2, 1, 3, 3})
	f.Add(append([]byte{1, 0, 1, 1, 0, 0, 0, 0, 7}, `{"name":"x","layout":1,"layers":[{"kind":"input","units":2},{"kind":"dense","units":1}]}`...))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		layout := Layout(in.next() % 2)
		parts := 1 + int(in.next()%3)
		var m *nn.Model
		if in.next()%4 == 0 {
			m = nn.NewLSTMModel("f", 1+int(in.next()%4), 1+int(in.next()%4), 1)
		} else {
			m = nn.NewDenseModel("f", 1+int(in.next()%4), 1+int(in.next()%4), 1+int(in.next()%2), 1+int(in.next()%2), 1)
		}
		flat, meta, err := Export(m, ExportOptions{Layout: layout})
		if err != nil {
			t.Fatal(err)
		}
		wide := false
		li := int(in.next()) % len(meta.Layers)
		text := ""
		switch in.next() % 8 {
		case 0:
			meta.Layers[li].Units = int(int8(in.next()))
		case 1:
			// Far wider than the table: staging would take megabytes.
			for i := range meta.Layers {
				meta.Layers[i].Units = 1024
			}
			wide = true
		case 2:
			meta.Layers[li].Activation = []string{"relu", "tanh", "bogus", ""}[in.next()%4]
		case 3:
			meta.Layers[li].Kind = []string{"input", "dense", "lstm", "conv"}[in.next()%4]
		case 4:
			meta.Layout = Layout(in.next() % 4)
		case 5:
			meta.Layers[li].TimeSteps = int(int8(in.next()))
		case 7:
			text = string(in.rest(200))
		}
		if text == "" {
			text = meta.String()
		}
		pm, err := ParseMeta(text)
		if err != nil {
			return
		}

		rows := scanRows(t, flat.Snapshot(), 0, nil)
		for n := in.next() % 4; n > 0 && rows.Len() > 0; n-- {
			r := int(in.next()) % rows.Len()
			if in.next()%2 == 0 {
				if err := rows.AppendRow(rows.Row(r)...); err != nil {
					t.Fatal(err)
				}
				r = rows.Len() - 1
			}
			for c, v := range rows.Vecs {
				if in.next()%3 != 0 {
					continue
				}
				if c < layout.KeyColumns() {
					v.Int32s()[r] = int32(int8(in.next()))
				} else {
					v.Float32s()[r] = math.Float32frombits(binary.LittleEndian.Uint32(in.bytes(4)))
				}
			}
		}
		tbl := storage.NewTable("f", Schema(layout), storage.Options{Partitions: parts})
		if err := tbl.Append(rows); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		layers, _, err := Decode(tbl.Snapshot(), pm, in.next()%2 == 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			if alloc := after.TotalAlloc - before.TotalAlloc; wide && alloc > 1<<20 {
				t.Fatalf("a failed decode of a META far wider than its %d rows allocated %d bytes: %v", rows.Len(), alloc, err)
			}
			return
		}
		if len(layers) != len(pm.Layers)-1 {
			t.Fatalf("%d staged layers for a %d-layer meta", len(layers), len(pm.Layers))
		}
		back, err := Import(tbl, pm)
		if err != nil {
			t.Fatalf("Decode accepted the table, Import refused it: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("decoded model is invalid: %v (meta %s)", err, pm)
		}
	})
}

// fuzzInput hands out fuzz bytes, then zeros once they run out.
type fuzzInput []byte

func (in *fuzzInput) next() byte { return in.bytes(1)[0] }

// bytes returns the next n bytes, zero-padded.
func (in *fuzzInput) bytes(n int) []byte {
	b := make([]byte, n)
	copy(b, *in)
	*in = (*in)[min(n, len(*in)):]
	return b
}

// rest returns up to n of the remaining bytes.
func (in *fuzzInput) rest(n int) []byte {
	b := (*in)[:min(n, len(*in))]
	*in = (*in)[len(b):]
	return b
}
