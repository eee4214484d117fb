//go:build !unix

package diskstore

import "os"

// segMap is the platform shim where no mmap is available: it keeps a
// read handle open and serves each record with ReadAt. The length a
// unix build maps at is ignored, because a read past the end of the
// file fails on its own.
type segMap struct {
	f *os.File
}

// mapSegment opens the file at path for reading.
func mapSegment(path string, length int64) (*segMap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &segMap{f: f}, nil
}

// copyAt fills dst with the bytes at off.
func (m *segMap) copyAt(dst []byte, off int64) error {
	_, err := m.f.ReadAt(dst, off)
	return err
}

// release closes the read handle.
func (m *segMap) release() error {
	return m.f.Close()
}
