//! The closed set of decoders a spec can name.

use crate::error::ApiError;
use prophunt_circuit::DetectorErrorModel;
use prophunt_decoders::{BpOsdDecoder, Decoder, UnionFindDecoder};
use std::sync::Arc;

/// The decoder names [`build_decoder`] accepts, sorted:
///
/// * `bposd` — normalized min-sum belief propagation with OSD-0 post-processing
///   (works on every detector error model).
/// * `unionfind` — cluster-growth union-find (fast on graph-like models).
pub const DECODER_NAMES: [&str; 2] = ["bposd", "unionfind"];

/// Builds the decoder called `name` for `dem`.
///
/// # Errors
///
/// Returns [`ApiError::UnknownDecoder`] when `name` is not in [`DECODER_NAMES`].
pub fn build_decoder(name: &str, dem: &DetectorErrorModel) -> Result<Arc<dyn Decoder>, ApiError> {
    match name {
        "bposd" => Ok(Arc::new(BpOsdDecoder::new(dem))),
        "unionfind" => Ok(Arc::new(UnionFindDecoder::new(dem))),
        _ => Err(ApiError::UnknownDecoder {
            name: name.to_string(),
            known: DECODER_NAMES
                .iter()
                .map(|known| known.to_string())
                .collect(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_circuit::schedule::ScheduleSpec;
    use prophunt_circuit::{MemoryBasis, MemoryExperiment, NoiseModel};
    use prophunt_qec::surface::rotated_surface_code_with_layout;

    fn d3_dem() -> DetectorErrorModel {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let exp = MemoryExperiment::build(&code, &schedule, 2, MemoryBasis::Z).unwrap();
        DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3))
    }

    #[test]
    fn default_registry_builds_both_builtin_decoders() {
        let dem = d3_dem();
        for name in DECODER_NAMES {
            let decoder = build_decoder(name, &dem).unwrap();
            assert_eq!(decoder.num_detectors(), dem.num_detectors());
            assert_eq!(decoder.num_observables(), dem.num_observables());
        }
    }

    #[test]
    fn unknown_names_report_the_known_set() {
        let Err(err) = build_decoder("pymatching", &d3_dem()) else {
            panic!("expected an error");
        };
        assert_eq!(
            err.to_string(),
            "unknown decoder \"pymatching\" (known: bposd, unionfind)"
        );
        let ApiError::UnknownDecoder { name, known } = err else {
            panic!("expected UnknownDecoder");
        };
        assert_eq!(name, "pymatching");
        assert_eq!(known, vec!["bposd", "unionfind"]);
    }
}
