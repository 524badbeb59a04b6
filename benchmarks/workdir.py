"""Work directories whose subdirectories start on unused parts of the disk.

Each simulation writes thousands of CAS block files and the benchmark
deletes them afterwards.  On ext4 without a journal, allocating an inode
skips, one by one, every inode of the block group that was freed in the
last one to five minutes, so files created where the previous simulation's
files were deleted cost up to ten times more, and by an amount that varies
from run to run.  The top-directory flag (``chattr +T``) makes ext4 spread
the subdirectories of a directory over block groups instead of packing them
next to their parent, so every fresh CAS directory gets inodes that were
not freed recently.  On a file system without the flag this does nothing.
"""
from __future__ import annotations

import fcntl
import os
import struct
from pathlib import Path

# from linux/fs.h; the flag word is an int despite the ioctl's declared size
FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
FS_TOPDIR_FL = 0x00020000


def spread_subdirs(path: Path) -> None:
    """Create ``path`` if needed and set its top-directory flag where supported."""
    path.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        (flags,) = struct.unpack("i", fcntl.ioctl(fd, FS_IOC_GETFLAGS, bytes(4)))
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("i", flags | FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(fd)
