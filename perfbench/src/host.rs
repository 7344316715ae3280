//! Host fingerprint and process memory, read from outside the program.

/// Where a measurement was taken.
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub simd: &'static str,
}

impl Host {
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu_model,
            rustc,
            simd: simd_tier(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu_model\": {}, \"rustc\": {}, \"simd\": \"{}\"}}",
            self.cores,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            self.simd
        )
    }
}

/// The widest vector tier the CPU offers (the crates dispatch at run time
/// and keep their own tier private, so it is detected here independently).
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    "scalar"
}

/// A `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`).
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with(field) && line[field.len()..].starts_with(':'))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
