package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"

	"planck/internal/units"
)

func roundTrip(t *testing.T, opts ...WriterOption) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	type rec struct {
		tm   units.Time
		data []byte
	}
	var recs []rec
	var tm units.Time
	for i := 0; i < 200; i++ {
		tm = tm.Add(units.Duration(rng.Int63n(int64(units.Millisecond))))
		data := make([]byte, 20+rng.Intn(1500))
		rng.Read(data)
		recs = append(recs, rec{tm, data})
		if err := w.WriteRecord(Record{Time: tm, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.link != LinkTypeEthernet {
		t.Fatalf("link type %d", r.link)
	}
	nanos := false
	for _, o := range opts {
		w2 := &Writer{}
		o(w2)
		if w2.nanos {
			nanos = true
		}
	}
	for i := 0; ; i++ {
		got, err := r.Next()
		if err == io.EOF {
			if i != len(recs) {
				t.Fatalf("got %d records, want %d", i, len(recs))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want := recs[i]
		if !bytes.Equal(got.Data, want.data) {
			t.Fatalf("record %d data mismatch", i)
		}
		if got.WireLen != len(want.data) {
			t.Fatalf("record %d wirelen %d", i, got.WireLen)
		}
		wantT := want.tm
		if !nanos {
			wantT = wantT / 1000 * 1000 // µs truncation
		}
		if got.Time != wantT {
			t.Fatalf("record %d time %v want %v", i, got.Time, wantT)
		}
	}
}

func TestRoundTripMicro(t *testing.T) { roundTrip(t) }
func TestRoundTripNano(t *testing.T)  { roundTrip(t, WithNanosecondResolution()) }

func TestSnapLen(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithSnapLen(64))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	if err := w.WriteRecord(Record{Time: 1000, Data: data}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 64 || rec.WireLen != 1500 {
		t.Fatalf("caplen %d wirelen %d", len(rec.Data), rec.WireLen)
	}
	if !bytes.Equal(rec.Data, data[:64]) {
		t.Fatal("snap data mismatch")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-build a big-endian µs file with one 4-byte record.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 3)      // 3 s
	binary.BigEndian.PutUint32(rec[4:8], 500000) // 0.5 s in µs
	binary.BigEndian.PutUint32(rec[8:12], 4)     // caplen
	binary.BigEndian.PutUint32(rec[12:16], 1500) // wirelen
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3, 4})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != units.Time(3500*units.Millisecond) || got.WireLen != 1500 {
		t.Fatalf("record %+v", got)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.WriteRecord(Record{Time: 0, Data: []byte{1, 2, 3}})
	w.Flush()
	b := buf.Bytes()[:buf.Len()-2] // cut the payload short
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record: err=%v", err)
	}
}
