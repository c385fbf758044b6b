// Package pcap reads and writes classic libpcap capture files, in both
// microsecond and nanosecond timestamp resolution. Planck's vantage-point
// monitoring application (paper §6.1) dumps collector sample rings to pcap
// so that standard tools (tcpdump, wireshark) can inspect what a switch
// actually forwarded.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"planck/internal/units"
)

// Magic numbers (little-endian on write; reader accepts both endiannesses).
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkTypeEthernet is the DLT_EN10MB link type.
const LinkTypeEthernet = 1

const (
	fileHeaderLen   = 24
	recordHeaderLen = 16
)

// ErrBadMagic is returned when a file does not start with a pcap magic.
var ErrBadMagic = errors.New("pcap: bad magic")

// Record is one captured packet.
type Record struct {
	// Time is the capture timestamp on the simulation's virtual clock.
	Time units.Time
	// WireLen is the original packet length on the wire.
	WireLen int
	// Data is the captured bytes (possibly truncated to a snap length).
	Data []byte
}

// Writer emits a pcap stream. Create with NewWriter, then call
// WriteRecord for each packet and Flush before closing the destination.
type Writer struct {
	w     *bufio.Writer
	nanos bool
	snap  int
	hdr   [recordHeaderLen]byte
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithNanosecondResolution selects the nanosecond-magic variant.
func WithNanosecondResolution() WriterOption { return func(w *Writer) { w.nanos = true } }

// WithSnapLen truncates written packets to n bytes (the header still
// records the true wire length).
func WithSnapLen(n int) WriterOption { return func(w *Writer) { w.snap = n } }

// NewWriter writes a pcap file header to dst and returns a Writer.
func NewWriter(dst io.Writer, opts ...WriterOption) (*Writer, error) {
	w := &Writer{w: bufio.NewWriter(dst), snap: 65535}
	for _, o := range opts {
		o(w)
	}
	var hdr [fileHeaderLen]byte
	magic := uint32(MagicMicroseconds)
	if w.nanos {
		magic = MagicNanoseconds
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(w.snap))
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: write file header: %w", err)
	}
	return w, nil
}

// WriteRecord appends one packet.
func (w *Writer) WriteRecord(r Record) error {
	secs := uint32(int64(r.Time) / int64(units.Second))
	rem := int64(r.Time) % int64(units.Second)
	var frac uint32
	if w.nanos {
		frac = uint32(rem)
	} else {
		frac = uint32(rem / 1000)
	}
	data := r.Data
	if len(data) > w.snap {
		data = data[:w.snap]
	}
	wire := r.WireLen
	if wire == 0 {
		wire = len(r.Data)
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], secs)
	binary.LittleEndian.PutUint32(w.hdr[4:8], frac)
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.hdr[12:16], uint32(wire))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: write record data: %w", err)
	}
	return nil
}

// Flush writes any buffered data to the destination.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader parses a pcap stream.
type Reader struct {
	r       *bufio.Reader
	order   binary.ByteOrder
	nanos   bool
	link    uint32
	hdr     [recordHeaderLen]byte
	scratch []byte
}

// NewReader parses the file header from src and returns a Reader.
func NewReader(src io.Reader) (*Reader, error) {
	r := &Reader{r: bufio.NewReader(src)}
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read file header: %w", err)
	}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		r.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		r.order, r.nanos = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		r.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		r.order, r.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("pcap: magic %#08x: %w", magicLE, ErrBadMagic)
	}
	r.link = r.order.Uint32(hdr[20:24])
	return r, nil
}

// Next returns the next record, or io.EOF at end of stream. The returned
// Data slice is only valid until the following Next call.
func (r *Reader) Next() (Record, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcap: read record header: %w", err)
	}
	secs := int64(r.order.Uint32(r.hdr[0:4]))
	frac := int64(r.order.Uint32(r.hdr[4:8]))
	caplen := int(r.order.Uint32(r.hdr[8:12]))
	wire := int(r.order.Uint32(r.hdr[12:16]))
	if caplen < 0 || caplen > 1<<26 {
		return Record{}, fmt.Errorf("pcap: unreasonable capture length %d", caplen)
	}
	if cap(r.scratch) < caplen {
		r.scratch = make([]byte, caplen)
	}
	data := r.scratch[:caplen]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, fmt.Errorf("pcap: read %d-byte record: %w", caplen, err)
	}
	ns := frac
	if !r.nanos {
		ns *= 1000
	}
	return Record{
		Time:    units.Time(secs*int64(units.Second) + ns),
		WireLen: wire,
		Data:    data,
	}, nil
}
