//go:build linux

package main

import (
	"os"
	"syscall"
	"unsafe"
)

// FS_IOC_GETFLAGS, FS_IOC_SETFLAGS and FS_TOPDIR_FL of <linux/fs.h>. The
// request numbers encode sizeof(long); the kernel reads and writes an int.
const (
	fsIocGetFlags = 2<<30 | unsafe.Sizeof(uintptr(0))<<16 | 'f'<<8 | 1
	fsIocSetFlags = 1<<30 | unsafe.Sizeof(uintptr(0))<<16 | 'f'<<8 | 2
	fsTopdirFl    = 0x00020000
)

// spreadSubdirs marks dir as the top of a directory hierarchy (what
// `chattr +T` does), so that ext4 places each subdirectory created in it
// in a block group of its own instead of next to its parent. Best effort:
// on a filesystem without the flag it does nothing.
//
// Why a benchmark cares: campaign-fabric creates and deletes some 230
// inodes per op, and ext4 without a journal will not reuse a deleted
// inode for 60 to 300 seconds. It skips over them one at a time on every
// allocation instead, and with all of a run's stores in one block group an
// op's kernel time doubled within ten consecutive runs (a store took 2 ms
// to create in a fresh group, 20 to 70 ms in the crowded one). A user's
// campaign writes one store once; each op here stands for that, so each
// op's store gets a group that earlier ops have not churned.
func spreadSubdirs(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	flags |= fsTopdirFl
	_, _, _ = syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
