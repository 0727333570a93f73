package store

import "encoding/binary"

// WithoutCertain returns the snapshot raw with its interval section as a
// writer that predates the certain flag wrote it: every span word's bit 31
// cleared, adjacent partial runs merged, and the counts and CRCs rebuilt.
func WithoutCertain(raw []byte) ([]byte, error) {
	s, err := OpenBytes(raw)
	if err != nil {
		return nil, err
	}
	n := s.NumObjects()
	s.Close()
	nsec := int(binary.LittleEndian.Uint32(raw[12:]))
	secs := make([]section, 0, nsec)
	for i := range nsec {
		ent := raw[headerSize+i*tableEntrySize:]
		id := binary.LittleEndian.Uint32(ent[0:])
		off := binary.LittleEndian.Uint64(ent[8:])
		payload := raw[off : off+binary.LittleEndian.Uint64(ent[16:])]
		if id == secIntervals {
			payload = intervalsWithoutCertain(payload, n)
		}
		secs = append(secs, section{id: id, payload: payload})
	}
	return assemble(secs), nil
}

// intervalsWithoutCertain rewrites an interval section payload of n
// objects: the 32-byte grid header, one uint32 span count an object,
// padding to 8 bytes, then the span words.
func intervalsWithoutCertain(b []byte, n int) []byte {
	const hiField = 0x3fffffff << 1
	start := int(align8(uint64(32 + 4*n)))
	out := append([]byte(nil), b[:start]...)
	words := b[start:]
	for i := range n {
		k := int(binary.LittleEndian.Uint32(b[32+4*i:]))
		kept := 0
		for j := range k {
			v := binary.LittleEndian.Uint64(words[8*j:]) &^ (1 << 31)
			if kept > 0 {
				prev := binary.LittleEndian.Uint64(out[len(out)-8:])
				if v&1 == 0 && prev&1 == 0 && v>>32 == (prev&hiField)>>1+1 {
					binary.LittleEndian.PutUint64(out[len(out)-8:], prev&^hiField|v&hiField)
					continue
				}
			}
			out = binary.LittleEndian.AppendUint64(out, v)
			kept++
		}
		binary.LittleEndian.PutUint32(out[32+4*i:], uint32(kept))
		words = words[8*k:]
	}
	return out
}
