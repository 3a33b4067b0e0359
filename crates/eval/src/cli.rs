//! Argument handling shared by the workspace's command-line tools; every
//! failure is an [`EvalError`], so every bin exits with the same statuses.

use crate::{CodecError, EvalError};

/// Pulls `--flag value` out of an argument list; the leftovers stay. A
/// flag with no value after it is a usage error that quotes `usage`.
pub fn take_flag(
    args: &mut Vec<String>,
    flag: &str,
    usage: &str,
) -> Result<Option<String>, EvalError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(EvalError::Usage(format!("{flag} needs a value\n{usage}"))),
    }
}

/// [`take_flag`] with the value parsed as `T`; text that does not parse
/// is the usage error `bad {what} "text"`.
pub fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    what: &str,
    usage: &str,
) -> Result<Option<T>, EvalError> {
    take_flag(args, flag, usage)?
        .map(|s| {
            s.parse()
                .map_err(|_| EvalError::Usage(format!("bad {what} {s:?}")))
        })
        .transpose()
}

/// Pulls a bare `--flag` out of an argument list.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// The usage error for arguments no flag claimed, if any are left.
pub fn no_more_args(args: &[String], usage: &str) -> Result<(), EvalError> {
    if args.is_empty() {
        return Ok(());
    }
    Err(EvalError::Usage(format!(
        "unexpected arguments {args:?}\n{usage}"
    )))
}

/// A tool's process exit: a failure prints as `tool: error [status N]`.
pub fn exit_code(tool: &str, result: Result<(), EvalError>) -> std::process::ExitCode {
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{tool}: {e} [status {}]", e.status());
            std::process::ExitCode::FAILURE
        }
    }
}

/// Keeps the file path in a codec failure's message without abandoning the
/// typed error (and its stable status code).
pub fn file_ctx(path: &str, e: CodecError) -> EvalError {
    match e {
        CodecError::Io(io) => {
            EvalError::Io(std::io::Error::new(io.kind(), format!("{path}: {io}")))
        }
        other => EvalError::Codec(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_taken_and_the_rest_stays_in_order() {
        let mut args: Vec<String> = ["a", "--n", "7", "--report", "b", "--out"]
            .map(String::from)
            .to_vec();
        assert_eq!(
            take_parsed(&mut args, "--n", "count", "U").unwrap(),
            Some(7)
        );
        assert!(take_switch(&mut args, "--report") && !take_switch(&mut args, "--report"));
        let no_value = take_flag(&mut args, "--out", "U").unwrap_err();
        assert_eq!(no_value.to_string(), "--out needs a value\nU");
        assert_eq!(args, ["a", "b", "--out"]);
        let leftovers = no_more_args(&args[..1], "U").unwrap_err();
        assert_eq!(leftovers.to_string(), "unexpected arguments [\"a\"]\nU");
        let mut bad = vec!["--n".to_string(), "x".to_string()];
        let unparsed = take_parsed::<u32>(&mut bad, "--n", "count", "U").unwrap_err();
        assert_eq!(unparsed.to_string(), "bad count \"x\"");
    }
}
