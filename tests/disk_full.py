"""A file wrapper that fails a write as a full disk would."""
import errno


class DiskFullAt:
    """File wrapper whose ``fail_at``-th write stores half its bytes, then
    raises as a full disk would."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            self.fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)
