//! Host-side counters read from `/proc`: CPU ticks, I/O syscalls, resident
//! peak, context switches, steal. The workspace builds without libc, so the
//! text files are the interface; each parser is a pure function of the file's
//! text and is tested on captured samples.

/// User and system CPU time of the whole process (exited threads included),
/// in clock ticks, from `/proc/self/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub user: u64,
    pub sys: u64,
}

/// Fields 14 and 15 of a `/proc/<pid>/stat` line. The command name (field 2)
/// is whatever the program set and may itself hold spaces and parentheses, so
/// the numbered fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, so utime (14) is the 12th here.
    let user = fields.nth(11)?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some(CpuTicks { user, sys })
}

/// Bytes and calls the process moved through `read`/`write`-family syscalls
/// (`/proc/self/io`: `rchar`, `wchar`, `syscr`, `syscw`). These count page
/// cache and tmpfs traffic too, which `read_bytes`/`write_bytes` (block-device
/// traffic only) would report as zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub read_calls: u64,
    pub write_calls: u64,
}

impl IoCounts {
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            read_calls: self.read_calls - earlier.read_calls,
            write_calls: self.write_calls - earlier.write_calls,
        }
    }
}

/// The value of a `key: value [unit]` line, as `/proc/self/{io,status}` use.
fn keyed(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_ascii_whitespace().next()?.parse().ok()
    })
}

pub fn parse_io(text: &str) -> Option<IoCounts> {
    Some(IoCounts {
        read_bytes: keyed(text, "rchar")?,
        write_bytes: keyed(text, "wchar")?,
        read_calls: keyed(text, "syscr")?,
        write_calls: keyed(text, "syscw")?,
    })
}

/// From `/proc/self/status`: peak resident set of the process, and the
/// context switches of the main thread (the one that drives the timed loop
/// and plays the scoring client; rank and worker threads are not in it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Status {
    pub peak_rss_bytes: u64,
    pub invol_ctx_switches: u64,
}

pub fn parse_status(text: &str) -> Option<Status> {
    Some(Status {
        peak_rss_bytes: keyed(text, "VmHWM")? * 1024,
        invol_ctx_switches: keyed(text, "nonvoluntary_ctxt_switches")?,
    })
}

/// Ticks all CPUs of the host spent stolen by the hypervisor: the eighth
/// number of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_steal(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// Clock ticks per second from the ELF auxiliary vector (`AT_CLKTCK` = 17):
/// native-endian `(key, value)` word pairs.
pub fn parse_clk_tck(auxv: &[u8]) -> Option<u64> {
    const WORD: usize = std::mem::size_of::<usize>();
    auxv.chunks_exact(2 * WORD).find_map(|pair| {
        let word = |b: &[u8]| usize::from_ne_bytes(b.try_into().expect("WORD bytes"));
        (word(&pair[..WORD]) == 17).then(|| word(&pair[WORD..]) as u64)
    })
}

/// The file system type mounted at the longest mount point that is a prefix
/// of `path`, from the text of `/proc/mounts`.
pub fn parse_fs_type(mounts: &str, path: &std::path::Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_ascii_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs.to_string())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Live readers. A host without `/proc` yields zeros rather than an error:
/// the wall-clock metrics stay valid and the zero CPU time is visible.
pub fn cpu_ticks() -> CpuTicks {
    parse_stat(&read("/proc/self/stat")).unwrap_or_default()
}

pub fn io_counts() -> IoCounts {
    parse_io(&read("/proc/self/io")).unwrap_or_default()
}

pub fn status() -> Status {
    parse_status(&read("/proc/self/status")).unwrap_or_default()
}

pub fn steal_ticks() -> u64 {
    parse_steal(&read("/proc/stat")).unwrap_or_default()
}

/// Ticks per second of the counters above (100 when the vector is unreadable,
/// the value every Linux build for x86 and arm64 uses).
pub fn clk_tck() -> u64 {
    std::fs::read("/proc/self/auxv")
        .ok()
        .and_then(|b| parse_clk_tck(&b))
        .filter(|&t| t > 0)
        .unwrap_or(100)
}

pub fn fs_type(path: &std::path::Path) -> String {
    parse_fs_type(&read("/proc/mounts"), path).unwrap_or_else(|| "unknown".into())
}

/// Soft limit on open files from `/proc/self/limits` (`None` = unlimited or
/// unreadable).
pub fn parse_open_files_limit(limits: &str) -> Option<u64> {
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_ascii_whitespace().nth(3)?.parse().ok()
}

pub fn open_files_limit() -> Option<u64> {
    parse_open_files_limit(&read("/proc/self/limits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let plain = "4242 (scalparc-bench) R 1 4242 4242 0 -1 4194304 150 0 0 0 \
                     731 29 0 0 20 0 3 0 1000 1 1 18446744073709551615";
        assert_eq!(parse_stat(plain), Some(CpuTicks { user: 731, sys: 29 }));
        // A command renamed to `a) R (b c` must not shift the fields.
        let hostile = "4242 (a) R (b c) S 1 4242 4242 0 -1 4194304 150 0 0 0 \
                       17 5 0 0 20 0 3 0 1000 1 1 0";
        assert_eq!(parse_stat(hostile), Some(CpuTicks { user: 17, sys: 5 }));
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (x) R 1 2 3"), None);
    }

    #[test]
    fn io_reads_syscall_side_counters() {
        let text = "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 2\n\
                    read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n";
        let io = parse_io(text).unwrap();
        assert_eq!(
            io,
            IoCounts {
                read_bytes: 3980,
                write_bytes: 120,
                read_calls: 9,
                write_calls: 2
            }
        );
        let later = IoCounts {
            read_bytes: 4000,
            write_bytes: 200,
            read_calls: 10,
            write_calls: 4,
        };
        assert_eq!(later.since(&io).write_calls, 2);
        assert_eq!(parse_io("rchar: 1\n"), None);
    }

    #[test]
    fn status_reads_peak_rss_and_switches() {
        let text = "Name:\tbench\nVmPeak:\t  900 kB\nVmHWM:\t    2048 kB\n\
                    voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(
            parse_status(text),
            Some(Status {
                peak_rss_bytes: 2048 * 1024,
                invol_ctx_switches: 3
            })
        );
        assert_eq!(parse_status("Name:\tbench\n"), None);
    }

    #[test]
    fn steal_clk_tck_fs_type_and_limits() {
        let stat = "cpu  10 0 20 300 4 0 1 77 0 0\ncpu0 5 0 10 150 2 0 0 40 0 0\n";
        assert_eq!(parse_steal(stat), Some(77));

        let mut auxv = Vec::new();
        for (k, v) in [(6usize, 4096usize), (17, 100), (0, 0)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(parse_clk_tck(&auxv), Some(100));
        assert_eq!(parse_clk_tck(&auxv[..8]), None);

        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n";
        let fs = |p: &str| parse_fs_type(mounts, std::path::Path::new(p));
        assert_eq!(fs("/dev/shm/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/x").as_deref(), Some("ext4"));
        // `/dev/shmoo` is not under the `/dev/shm` mount.
        assert_eq!(fs("/dev/shmoo").as_deref(), Some("ext4"));

        let limits = "Limit                     Soft Limit           Hard Limit           Units\n\
                      Max open files            20000                40000                files\n";
        assert_eq!(parse_open_files_limit(limits), Some(20000));
        let unlimited =
            "Max open files            unlimited            unlimited            files\n";
        assert_eq!(parse_open_files_limit(unlimited), None);
    }
}
