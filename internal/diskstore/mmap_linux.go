//go:build linux && (amd64 || arm64)

package diskstore

import (
	"syscall"
	"unsafe"
)

// mmapShared and munmap are the bare system calls, not syscall.Mmap and
// syscall.Munmap: a segment owns its one mapping, so it has no use for
// the table of active mappings (a map behind a process-wide mutex)
// those keep. Linking that table into the binary also moved every
// function laid out after package syscall, math/rand's included, and
// that alone made the benchmark's heal-after-loss set-up, which is
// mostly rand.Read, about a quarter slower (DESIGN.md §12).

// mmapShared maps length bytes of fd read-only and shared.
func mmapShared(fd uintptr, length int) ([]byte, error) {
	addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, uintptr(length),
		syscall.PROT_READ, syscall.MAP_SHARED, fd, 0)
	if errno != 0 {
		return nil, errno
	}
	return unsafe.Slice((*byte)(unsafe.Add(nil, addr)), length), nil
}

// munmap releases a mapping mmapShared made.
func munmap(data []byte) error {
	_, _, errno := syscall.Syscall(syscall.SYS_MUNMAP,
		uintptr(unsafe.Pointer(unsafe.SliceData(data))), uintptr(len(data)), 0)
	if errno != 0 {
		return errno
	}
	return nil
}
