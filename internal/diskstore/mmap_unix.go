//go:build unix && !(linux && (amd64 || arm64))

package diskstore

import "syscall"

// mmapShared maps length bytes of fd read-only and shared.
func mmapShared(fd uintptr, length int) ([]byte, error) {
	return syscall.Mmap(int(fd), 0, length, syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmap releases a mapping mmapShared made.
func munmap(data []byte) error {
	return syscall.Munmap(data)
}
