//go:build unix

package diskstore

import (
	"fmt"
	"math"
	"os"
)

// segMap is a segment file mapped read-only and shared, so a read is a
// copy out of the page cache instead of a pread. The file descriptor is
// closed as soon as the mapping exists; the mapping alone keeps the
// pages reachable, even after retention unlinks the file.
//
// The mapping may be longer than the file (the active segment is mapped
// at a length it can never outgrow, see Store.activeMapLen): bytes the
// writer appends through its own handle show up in it, and a page wholly
// past the end of the file is never touched because only indexed
// records are read.
type segMap struct {
	data []byte
}

// mapSegment maps the first length bytes of the file at path.
func mapSegment(path string, length int64) (*segMap, error) {
	if length <= 0 || length > math.MaxInt {
		return nil, fmt.Errorf("diskstore: cannot map %s at %d bytes", path, length)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := mmapShared(f.Fd(), int(length))
	if err != nil {
		return nil, fmt.Errorf("diskstore: mmap %s: %w", path, err)
	}
	return &segMap{data: data}, nil
}

// copyAt fills dst with the bytes at off. A range past the mapping means
// the index names bytes no write could have put there: an error, never
// a fall back to another read.
func (m *segMap) copyAt(dst []byte, off int64) error {
	if off < 0 || off+int64(len(dst)) > int64(len(m.data)) {
		return fmt.Errorf("record [%d, %d) lies past the %d-byte mapping",
			off, off+int64(len(dst)), len(m.data))
	}
	copy(dst, m.data[off:])
	return nil
}

// release unmaps the segment.
func (m *segMap) release() error {
	return munmap(m.data)
}
