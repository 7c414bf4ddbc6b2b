package trace

// The columnar binary trace container ("VXTR"). The format is specified
// in DESIGN.md §10; in brief:
//
//	header:  "VXTR" magic, u16 little-endian version, u16 flags (zero)
//	chunks:  type byte, uvarint payload length, payload
//
// Chunk types: 0x01 event (malloc/free/memset/memcpy/alloc_at/restore),
// 0x02 launch (event fields + columnar access records), 0x03 end
// (required footer: uvarint event count + access count — its absence
// marks a truncated trace), 0x04 capsule metadata.
//
// Strings are interned in a streaming dictionary shared by all chunks: a
// string reference is uvarint n, where n>0 means dictionary entry n-1
// and n==0 is followed by uvarint length + bytes, appending a new entry.
// The reader mirrors the writer's appends, so the dictionary never
// appears on the wire as a separate section.
//
// Launch access records are stored as columns, each prefixed with its
// uvarint byte length: PC (zigzag delta), Addr (zigzag delta, in record
// order — see DESIGN.md §10 on why record order, not sorted order),
// flags (byte+uvarint run-length pairs packing log2(size), value kind,
// store, has-count), Raw (XOR delta), Count (only for has-count
// records), Block and Thread (zigzag delta).

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"valueexpert/callpath"
	"valueexpert/gpu"
)

// Magic + version of the binary container.
const (
	binMagic   = "VXTR"
	binVersion = 1
)

// Chunk type bytes.
const (
	chunkEvent   = 0x01
	chunkLaunch  = 0x02
	chunkEnd     = 0x03
	chunkCapsule = 0x04
)

// Event kind bytes inside an event chunk.
const (
	bkMalloc  = 1
	bkFree    = 2
	bkMemset  = 3
	bkMemcpy  = 4
	bkAllocAt = 5
	bkRestore = 6
)

// FormatError is a structural defect in a binary trace: truncation, a
// corrupt column, an unknown chunk or version. Offset is the byte
// position of the chunk being decoded when the defect was found.
type FormatError struct {
	Offset int64
	Msg    string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("trace: invalid binary trace at offset %d: %s", e.Offset, e.Msg)
}

// readChunkStep bounds each incremental payload read, so a chunk header
// lying about its length cannot make the reader allocate more than one
// step beyond the bytes actually present.
const readChunkStep = 64 * 1024

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer is a streaming trace encoder: events are serialized as they are
// written. Close finalizes the container (the footer chunk carrying
// event/access counts); a trace without its footer is detected as
// truncated on read. buf accumulates one chunk's payload; col stages
// one column before its length prefix is known.
type Writer struct {
	w      io.Writer
	dict   map[string]uint64
	buf    []byte
	col    []byte
	head   []byte
	wroteH bool
	err    error // sticky

	n        int64 // bytes written so far
	events   int
	accesses uint64
	closed   bool
}

// write forwards p to the underlying writer, counting the bytes and
// making a failure sticky.
func (bw *Writer) write(p []byte) error {
	n, err := bw.w.Write(p)
	bw.n += int64(n)
	if err != nil {
		bw.err = err
	}
	return err
}

func (bw *Writer) appendString(dst []byte, s string) []byte {
	if n, ok := bw.dict[s]; ok {
		return binary.AppendUvarint(dst, n+1)
	}
	bw.dict[s] = uint64(len(bw.dict))
	dst = binary.AppendUvarint(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFrames(bw *Writer, dst []byte, frames []callpath.Frame) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(frames)))
	for _, f := range frames {
		dst = bw.appendString(dst, f.Func)
		dst = bw.appendString(dst, f.File)
		dst = binary.AppendUvarint(dst, uint64(f.Line))
	}
	return dst
}

// flushChunk writes one framed chunk: type byte, payload length, payload.
func (bw *Writer) flushChunk(typ byte) error {
	if bw.err != nil {
		return bw.err
	}
	if !bw.wroteH {
		bw.wroteH = true
		if err := bw.writeHeader(); err != nil {
			return err
		}
	}
	bw.head = bw.head[:0]
	bw.head = append(bw.head, typ)
	bw.head = binary.AppendUvarint(bw.head, uint64(len(bw.buf)))
	if err := bw.write(bw.head); err != nil {
		return err
	}
	return bw.write(bw.buf)
}

func (bw *Writer) writeHeader() error {
	if bw.err != nil {
		return bw.err
	}
	var hdr [8]byte
	copy(hdr[:], binMagic)
	binary.LittleEndian.PutUint16(hdr[4:], binVersion)
	binary.LittleEndian.PutUint16(hdr[6:], 0) // flags, reserved
	return bw.write(hdr[:])
}

func (bw *Writer) writeEvent(e *Event) error {
	if bw.err != nil {
		return bw.err
	}
	bw.buf = bw.buf[:0]
	switch e.Kind {
	case kindLaunch:
		if err := bw.appendLaunch(e); err != nil {
			return err
		}
		return bw.flushChunk(chunkLaunch)
	case kindCapsule:
		bw.appendCapsule(e.Capsule)
		return bw.flushChunk(chunkCapsule)
	}
	b := bw.buf
	switch e.Kind {
	case kindMalloc:
		b = append(b, bkMalloc)
		b = appendFrames(bw, b, e.Frames)
		b = binary.AppendUvarint(b, e.Dst)
		b = binary.AppendUvarint(b, e.Bytes)
		b = bw.appendString(b, e.Tag)
	case kindFree:
		b = append(b, bkFree)
		b = appendFrames(bw, b, e.Frames)
		b = binary.AppendUvarint(b, e.Dst)
	case kindMemset:
		b = append(b, bkMemset)
		b = appendFrames(bw, b, e.Frames)
		b = binary.AppendUvarint(b, e.Dst)
		b = binary.AppendUvarint(b, e.Bytes)
		b = append(b, e.MemsetV)
	case kindMemcpy:
		b = append(b, bkMemcpy)
		b = appendFrames(bw, b, e.Frames)
		b = append(b, e.CopyKind)
		b = binary.AppendUvarint(b, e.Dst)
		b = binary.AppendUvarint(b, e.Src)
		b = binary.AppendUvarint(b, e.Bytes)
		if gpu.CopyKind(e.CopyKind) == gpu.CopyHostToDevice {
			b = binary.AppendUvarint(b, uint64(len(e.HostSrc)))
			b = append(b, e.HostSrc...)
		}
	case kindAllocAt:
		b = append(b, bkAllocAt)
		b = appendFrames(bw, b, e.Frames)
		b = binary.AppendUvarint(b, uint64(e.ObjID))
		b = binary.AppendUvarint(b, e.Dst)
		b = binary.AppendUvarint(b, e.Bytes)
		b = bw.appendString(b, e.Tag)
	case kindRestore:
		b = append(b, bkRestore)
		b = appendFrames(bw, b, e.Frames)
		b = binary.AppendUvarint(b, e.Dst)
		b = binary.AppendUvarint(b, uint64(len(e.HostSrc)))
		b = append(b, e.HostSrc...)
	default:
		return fmt.Errorf("trace: cannot encode event kind %q", e.Kind)
	}
	bw.buf = b
	return bw.flushChunk(chunkEvent)
}

func (bw *Writer) appendCapsule(ci *CapsuleInfo) {
	b := bw.buf
	if ci == nil {
		ci = &CapsuleInfo{}
	}
	b = bw.appendString(b, ci.Program)
	b = bw.appendString(b, ci.Device)
	b = binary.AppendUvarint(b, uint64(ci.LaunchSeq))
	b = binary.AppendUvarint(b, uint64(ci.LaunchIndex))
	b = binary.AppendUvarint(b, uint64(len(ci.ObjectIDs)))
	for _, id := range ci.ObjectIDs {
		b = binary.AppendUvarint(b, uint64(id))
	}
	bw.buf = b
}

// appendColumn stages bw.col into the payload behind its length prefix.
func (bw *Writer) appendColumn() {
	bw.buf = binary.AppendUvarint(bw.buf, uint64(len(bw.col)))
	bw.buf = append(bw.buf, bw.col...)
	bw.col = bw.col[:0]
}

func (bw *Writer) appendLaunch(e *Event) error {
	b := bw.buf
	b = bw.appendString(b, e.Name)
	b = appendFrames(bw, b, e.Frames)
	for _, d := range e.Grid {
		b = binary.AppendUvarint(b, uint64(d))
	}
	for _, d := range e.Block {
		b = binary.AppendUvarint(b, uint64(d))
	}
	c := &e.Counters
	for _, v := range []uint64{
		c.Loads, c.Stores, c.BytesLoaded, c.BytesStored,
		c.SharedBytes, c.FP32Ops, c.FP64Ops, c.IntOps,
	} {
		b = binary.AppendUvarint(b, v)
	}
	recs := e.Accesses
	b = binary.AppendUvarint(b, uint64(len(recs)))
	bw.buf = b

	// PC column: zigzag deltas.
	bw.col = bw.col[:0]
	prevPC := int64(0)
	for i := range recs {
		bw.col = binary.AppendUvarint(bw.col, zigzag(int64(recs[i].PC)-prevPC))
		prevPC = int64(recs[i].PC)
	}
	bw.appendColumn()

	// Addr column: zigzag deltas in record order.
	prevAddr := uint64(0)
	for i := range recs {
		bw.col = binary.AppendUvarint(bw.col, zigzag(int64(recs[i].Addr-prevAddr)))
		prevAddr = recs[i].Addr
	}
	bw.appendColumn()

	// Flags column: run-length-encoded (flags byte, uvarint run length).
	// bits [0:1] log2(size), [2:3] value kind, [4] store, [5] has-count.
	for i := 0; i < len(recs); {
		f, err := packFlags(&recs[i])
		if err != nil {
			return err
		}
		j := i + 1
		for j < len(recs) {
			fj, err := packFlags(&recs[j])
			if err != nil {
				return err
			}
			if fj != f {
				break
			}
			j++
		}
		bw.col = append(bw.col, f)
		bw.col = binary.AppendUvarint(bw.col, uint64(j-i))
		i = j
	}
	bw.appendColumn()

	// Raw column: XOR deltas (a repeated value costs one byte).
	prevRaw := uint64(0)
	for i := range recs {
		bw.col = binary.AppendUvarint(bw.col, recs[i].Raw^prevRaw)
		prevRaw = recs[i].Raw
	}
	bw.appendColumn()

	// Count column: one uvarint per has-count record.
	for i := range recs {
		if recs[i].Count != 0 {
			bw.col = binary.AppendUvarint(bw.col, uint64(recs[i].Count))
		}
	}
	bw.appendColumn()

	// Block and Thread columns: zigzag deltas.
	prevB := int64(0)
	for i := range recs {
		bw.col = binary.AppendUvarint(bw.col, zigzag(int64(recs[i].Block)-prevB))
		prevB = int64(recs[i].Block)
	}
	bw.appendColumn()
	prevT := int64(0)
	for i := range recs {
		bw.col = binary.AppendUvarint(bw.col, zigzag(int64(recs[i].Thread)-prevT))
		prevT = int64(recs[i].Thread)
	}
	bw.appendColumn()
	return nil
}

func packFlags(r *gpu.Access) (byte, error) {
	var l2 byte
	switch r.Size {
	case 1:
		l2 = 0
	case 2:
		l2 = 1
	case 4:
		l2 = 2
	case 8:
		l2 = 3
	default:
		return 0, fmt.Errorf("trace: cannot encode access size %d (want 1/2/4/8)", r.Size)
	}
	if r.Kind > 3 {
		return 0, fmt.Errorf("trace: cannot encode value kind %d", r.Kind)
	}
	f := l2 | byte(r.Kind)<<2
	if r.Store {
		f |= 1 << 4
	}
	if r.Count != 0 {
		f |= 1 << 5
	}
	return f, nil
}

func (bw *Writer) writeEnd() error {
	bw.buf = bw.buf[:0]
	bw.buf = binary.AppendUvarint(bw.buf, uint64(bw.events))
	bw.buf = binary.AppendUvarint(bw.buf, bw.accesses)
	return bw.flushChunk(chunkEnd)
}

// binReader decodes the chunk stream, reusing one Event and its backing
// slices across calls.
type binReader struct {
	r   io.Reader
	off int64 // bytes consumed so far; error offsets

	dict    []string
	payload []byte
	recs    []gpu.Access
	ev      Event
	frames  []callpath.Frame
	hostSrc []byte

	seq      int
	events   uint64
	accesses uint64
	sawEnd   bool

	one [1]byte
}

func newBinReader(r io.Reader) *binReader { return &binReader{r: r} }

func (br *binReader) errf(format string, args ...any) error {
	return &FormatError{Offset: br.off, Msg: fmt.Sprintf(format, args...)}
}

func (br *binReader) readByte() (byte, error) {
	n, err := io.ReadFull(br.r, br.one[:])
	br.off += int64(n)
	if err != nil {
		return 0, err
	}
	return br.one[0], nil
}

// readUvarint reads a uvarint directly from the stream (chunk headers).
func (br *binReader) readUvarint() (uint64, error) {
	var v uint64
	for s := 0; ; s += 7 {
		if s >= 64 {
			return 0, br.errf("uvarint overflows 64 bits")
		}
		b, err := br.readByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			return v, nil
		}
	}
}

// readHeader validates the magic and version.
func (br *binReader) readHeader() error {
	var hdr [8]byte
	n, err := io.ReadFull(br.r, hdr[:])
	br.off += int64(n)
	if err != nil {
		return br.errf("short header: %v", err)
	}
	if string(hdr[:4]) != binMagic {
		return br.errf("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != binVersion {
		return br.errf("unsupported trace version %d (reader speaks %d)", v, binVersion)
	}
	if f := binary.LittleEndian.Uint16(hdr[6:]); f != 0 {
		return br.errf("unknown header flags %#x", f)
	}
	return nil
}

// readPayload fills br.payload with n bytes, growing in bounded steps so
// a lying length fails at EOF having allocated at most one step beyond
// the bytes actually present.
func (br *binReader) readPayload(n uint64) error {
	if uint64(cap(br.payload)) >= n {
		br.payload = br.payload[:n]
		if m, err := io.ReadFull(br.r, br.payload); err != nil {
			br.off += int64(m)
			return br.errf("truncated chunk payload (%d of %d bytes)", m, n)
		}
		br.off += int64(n)
		return nil
	}
	br.payload = br.payload[:0]
	for got := uint64(0); got < n; {
		step := n - got
		if step > readChunkStep {
			step = readChunkStep
		}
		br.payload = append(br.payload, make([]byte, step)...)
		m, err := io.ReadFull(br.r, br.payload[got:got+step])
		br.off += int64(m)
		if err != nil {
			return br.errf("truncated chunk payload (%d of %d bytes)", got+uint64(m), n)
		}
		got += step
	}
	return nil
}

// cursor walks one chunk's payload.
type cursor struct {
	br  *binReader
	b   []byte
	pos int
}

func (c *cursor) fail(format string, args ...any) error {
	return c.br.errf("%s", fmt.Sprintf(format, args...))
}

func (c *cursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, c.fail("chunk payload ends mid-field")
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, c.fail("bad uvarint in chunk payload")
	}
	c.pos += n
	return v, nil
}

// intField decodes a uvarint that must fit a non-negative int.
func (c *cursor) intField(what string) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, c.fail("%s %d out of range", what, v)
	}
	return int(v), nil
}

func (c *cursor) bytesField(what string) ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)-c.pos) {
		return nil, c.fail("%s length %d exceeds remaining payload %d", what, n, len(c.b)-c.pos)
	}
	v := c.b[c.pos : c.pos+int(n)]
	c.pos += int(n)
	return v, nil
}

// str decodes a string reference, mirroring the writer's dictionary.
func (c *cursor) str() (string, error) {
	ref, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if ref > 0 {
		if ref > uint64(len(c.br.dict)) {
			return "", c.fail("string ref %d beyond dictionary size %d", ref, len(c.br.dict))
		}
		return c.br.dict[ref-1], nil
	}
	raw, err := c.bytesField("string")
	if err != nil {
		return "", err
	}
	s := string(raw)
	c.br.dict = append(c.br.dict, s)
	return s, nil
}

func (c *cursor) framesField() ([]callpath.Frame, error) {
	n, err := c.intField("frame count")
	if err != nil {
		return nil, err
	}
	// A frame costs ≥ 3 payload bytes; bound the allocation by what is
	// actually present.
	if n > (len(c.b)-c.pos)/3+1 {
		return nil, c.fail("frame count %d exceeds remaining payload", n)
	}
	frames := c.br.frames[:0]
	for i := 0; i < n; i++ {
		var f callpath.Frame
		if f.Func, err = c.str(); err != nil {
			return nil, err
		}
		if f.File, err = c.str(); err != nil {
			return nil, err
		}
		if f.Line, err = c.intField("frame line"); err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	c.br.frames = frames
	return frames, nil
}

// next decodes the next event. It returns io.EOF at a clean end of
// trace (after the end chunk) and a *FormatError for anything malformed,
// including an EOF with no end chunk (truncation).
func (br *binReader) next() (*Event, error) {
	if br.sawEnd {
		return nil, io.EOF
	}
	if br.off == 0 {
		if err := br.readHeader(); err != nil {
			return nil, err
		}
	}
	chunkOff := br.off
	typ, err := br.readByte()
	if err != nil {
		return nil, &FormatError{Offset: chunkOff, Msg: "trace ends without its end chunk (truncated)"}
	}
	plen, err := br.readUvarint()
	if err != nil {
		if ferr, ok := err.(*FormatError); ok {
			return nil, ferr
		}
		return nil, &FormatError{Offset: chunkOff, Msg: "truncated chunk header"}
	}
	if err := br.readPayload(plen); err != nil {
		return nil, err
	}
	c := &cursor{br: br, b: br.payload}
	br.seq++
	br.ev = Event{Seq: br.seq}
	switch typ {
	case chunkEvent:
		br.events++
		if err := br.decodeEvent(c); err != nil {
			return nil, err
		}
	case chunkLaunch:
		br.events++
		if err := br.decodeLaunch(c); err != nil {
			return nil, err
		}
		br.accesses += uint64(len(br.ev.Accesses))
	case chunkCapsule:
		br.events++
		if err := br.decodeCapsule(c); err != nil {
			return nil, err
		}
	case chunkEnd:
		br.seq--
		wantEvents, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		wantAccesses, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if wantEvents != br.events || wantAccesses != br.accesses {
			return nil, c.fail("end chunk declares %d events/%d accesses, trace carries %d/%d",
				wantEvents, wantAccesses, br.events, br.accesses)
		}
		br.sawEnd = true
		return nil, io.EOF
	default:
		return nil, &FormatError{Offset: chunkOff, Msg: fmt.Sprintf("unknown chunk type %#x", typ)}
	}
	if c.pos != len(c.b) {
		return nil, c.fail("%d trailing bytes in chunk payload", len(c.b)-c.pos)
	}
	return &br.ev, nil
}

func (br *binReader) decodeEvent(c *cursor) error {
	kind, err := c.byte()
	if err != nil {
		return err
	}
	e := &br.ev
	if e.Frames, err = c.framesField(); err != nil {
		return err
	}
	switch kind {
	case bkMalloc:
		e.Kind = kindMalloc
		if e.Dst, err = c.uvarint(); err != nil {
			return err
		}
		if e.Bytes, err = c.uvarint(); err != nil {
			return err
		}
		if e.Tag, err = c.str(); err != nil {
			return err
		}
	case bkFree:
		e.Kind = kindFree
		if e.Dst, err = c.uvarint(); err != nil {
			return err
		}
	case bkMemset:
		e.Kind = kindMemset
		if e.Dst, err = c.uvarint(); err != nil {
			return err
		}
		if e.Bytes, err = c.uvarint(); err != nil {
			return err
		}
		if e.MemsetV, err = c.byte(); err != nil {
			return err
		}
	case bkMemcpy:
		e.Kind = kindMemcpy
		if e.CopyKind, err = c.byte(); err != nil {
			return err
		}
		if e.Dst, err = c.uvarint(); err != nil {
			return err
		}
		if e.Src, err = c.uvarint(); err != nil {
			return err
		}
		if e.Bytes, err = c.uvarint(); err != nil {
			return err
		}
		if gpu.CopyKind(e.CopyKind) == gpu.CopyHostToDevice {
			raw, err := c.bytesField("host payload")
			if err != nil {
				return err
			}
			e.HostSrc = append(br.hostSrc[:0], raw...)
			br.hostSrc = e.HostSrc
		}
	case bkAllocAt:
		e.Kind = kindAllocAt
		if e.ObjID, err = c.intField("allocation id"); err != nil {
			return err
		}
		if e.Dst, err = c.uvarint(); err != nil {
			return err
		}
		if e.Bytes, err = c.uvarint(); err != nil {
			return err
		}
		if e.Tag, err = c.str(); err != nil {
			return err
		}
	case bkRestore:
		e.Kind = kindRestore
		if e.Dst, err = c.uvarint(); err != nil {
			return err
		}
		raw, err := c.bytesField("restore payload")
		if err != nil {
			return err
		}
		e.HostSrc = append(br.hostSrc[:0], raw...)
		br.hostSrc = e.HostSrc
		e.Bytes = uint64(len(e.HostSrc))
	default:
		return c.fail("unknown event kind byte %d", kind)
	}
	// API names are canonical per kind (the runtime emits exactly one
	// spelling each), so the wire omits them and the decoder restores
	// them, so the decoded Event equals the recorded one.
	e.Name = apiName[e.Kind]
	return nil
}

// apiName maps non-launch event kinds back to their recorded API names.
var apiName = map[string]string{
	kindMalloc:  "cudaMalloc",
	kindFree:    "cudaFree",
	kindMemset:  "cudaMemset",
	kindMemcpy:  "cudaMemcpy",
	kindAllocAt: "cudaMalloc",
	kindRestore: "restore",
}

func (br *binReader) decodeCapsule(c *cursor) error {
	e := &br.ev
	e.Kind = kindCapsule
	ci := &CapsuleInfo{}
	var err error
	if ci.Program, err = c.str(); err != nil {
		return err
	}
	if ci.Device, err = c.str(); err != nil {
		return err
	}
	if ci.LaunchSeq, err = c.intField("launch seq"); err != nil {
		return err
	}
	if ci.LaunchIndex, err = c.intField("launch index"); err != nil {
		return err
	}
	n, err := c.intField("object id count")
	if err != nil {
		return err
	}
	if n > len(c.b)-c.pos {
		return c.fail("object id count %d exceeds remaining payload", n)
	}
	for i := 0; i < n; i++ {
		id, err := c.intField("object id")
		if err != nil {
			return err
		}
		ci.ObjectIDs = append(ci.ObjectIDs, id)
	}
	e.Capsule = ci
	return nil
}

// column returns a sub-cursor over the next length-prefixed column.
func (c *cursor) column(what string) (cursor, error) {
	raw, err := c.bytesField(what)
	if err != nil {
		return cursor{}, err
	}
	return cursor{br: c.br, b: raw}, nil
}

func (c *cursor) drained(what string) error {
	if c.pos != len(c.b) {
		return c.fail("%s column carries %d extra bytes", what, len(c.b)-c.pos)
	}
	return nil
}

func (br *binReader) decodeLaunch(c *cursor) error {
	e := &br.ev
	e.Kind = kindLaunch
	var err error
	if e.Name, err = c.str(); err != nil {
		return err
	}
	if e.Frames, err = c.framesField(); err != nil {
		return err
	}
	for i := range e.Grid {
		if e.Grid[i], err = c.intField("grid dim"); err != nil {
			return err
		}
	}
	for i := range e.Block {
		if e.Block[i], err = c.intField("block dim"); err != nil {
			return err
		}
	}
	cnt := &e.Counters
	for _, p := range []*uint64{
		&cnt.Loads, &cnt.Stores, &cnt.BytesLoaded, &cnt.BytesStored,
		&cnt.SharedBytes, &cnt.FP32Ops, &cnt.FP64Ops, &cnt.IntOps,
	} {
		if *p, err = c.uvarint(); err != nil {
			return err
		}
	}
	n64, err := c.uvarint()
	if err != nil {
		return err
	}
	if n64 > math.MaxInt32 {
		return c.fail("access count %d out of range", n64)
	}
	n := int(n64)

	// PC column establishes (and bounds) the record slice: each record
	// costs at least one PC byte, so n cannot exceed the column's actual
	// size and the allocation is bounded by bytes present.
	pcCol, err := c.column("pc")
	if err != nil {
		return err
	}
	if n > len(pcCol.b) {
		return c.fail("access count %d exceeds pc column size %d", n, len(pcCol.b))
	}
	recs := br.recs[:0]
	if cap(recs) < n {
		recs = make([]gpu.Access, 0, n)
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, err := pcCol.uvarint()
		if err != nil {
			return err
		}
		prev += unzigzag(d)
		if prev < 0 || prev > math.MaxUint32 {
			return c.fail("pc %d out of range at record %d", prev, i)
		}
		recs = append(recs, gpu.Access{PC: gpu.PC(prev)})
	}
	if err := pcCol.drained("pc"); err != nil {
		return err
	}

	addrCol, err := c.column("addr")
	if err != nil {
		return err
	}
	addr := uint64(0)
	for i := 0; i < n; i++ {
		d, err := addrCol.uvarint()
		if err != nil {
			return err
		}
		addr += uint64(unzigzag(d))
		recs[i].Addr = addr
	}
	if err := addrCol.drained("addr"); err != nil {
		return err
	}

	flagCol, err := c.column("flags")
	if err != nil {
		return err
	}
	for covered := 0; covered < n; {
		f, err := flagCol.byte()
		if err != nil {
			return err
		}
		run, err := flagCol.intField("flag run length")
		if err != nil {
			return err
		}
		if run == 0 || covered+run > n {
			return c.fail("flag run %d at record %d overruns %d records", run, covered, n)
		}
		size := uint8(1) << (f & 3)
		kind := gpu.ValueKind(f >> 2 & 3)
		store := f&(1<<4) != 0
		hasCount := f&(1<<5) != 0
		for i := covered; i < covered+run; i++ {
			recs[i].Size = size
			recs[i].Kind = kind
			recs[i].Store = store
			if hasCount {
				recs[i].Count = 1 // placeholder; the count column fills it
			}
		}
		covered += run
	}
	if err := flagCol.drained("flags"); err != nil {
		return err
	}

	rawCol, err := c.column("raw")
	if err != nil {
		return err
	}
	raw := uint64(0)
	for i := 0; i < n; i++ {
		d, err := rawCol.uvarint()
		if err != nil {
			return err
		}
		raw ^= d
		recs[i].Raw = raw
	}
	if err := rawCol.drained("raw"); err != nil {
		return err
	}

	countCol, err := c.column("count")
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if recs[i].Count == 0 {
			continue
		}
		v, err := countCol.uvarint()
		if err != nil {
			return err
		}
		if v == 0 || v > math.MaxUint32 {
			return c.fail("record count %d out of range at record %d", v, i)
		}
		recs[i].Count = uint32(v)
	}
	if err := countCol.drained("count"); err != nil {
		return err
	}

	blockCol, err := c.column("block")
	if err != nil {
		return err
	}
	prev = 0
	for i := 0; i < n; i++ {
		d, err := blockCol.uvarint()
		if err != nil {
			return err
		}
		prev += unzigzag(d)
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			return c.fail("block %d out of range at record %d", prev, i)
		}
		recs[i].Block = int32(prev)
	}
	if err := blockCol.drained("block"); err != nil {
		return err
	}

	threadCol, err := c.column("thread")
	if err != nil {
		return err
	}
	prev = 0
	for i := 0; i < n; i++ {
		d, err := threadCol.uvarint()
		if err != nil {
			return err
		}
		prev += unzigzag(d)
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			return c.fail("thread %d out of range at record %d", prev, i)
		}
		recs[i].Thread = int32(prev)
	}
	if err := threadCol.drained("thread"); err != nil {
		return err
	}

	br.recs = recs
	e.Accesses = recs
	return nil
}
