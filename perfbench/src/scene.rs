//! Seeded synthetic scenes: the image and ground truth the benchmark
//! generates itself, and the `ModelParams` it hands the program.

use pmcmc_core::math::TruncatedNormal;
use pmcmc_core::{ModelParams, Xoshiro256};
use pmcmc_imaging::synth::{generate, SceneSpec};
use pmcmc_imaging::{Circle, GrayImage};

/// One generated input.
pub struct Scene {
    /// The rendered, noisy image.
    pub image: GrayImage,
    /// The model parameters a user would pass with it.
    pub params: ModelParams,
    /// Ground-truth circles, for F1.
    pub truth: Vec<Circle>,
}

/// The §VII scene: 1024², 150 cells of mean radius 10.
#[must_use]
pub fn section7(seed: u64) -> Scene {
    build(
        &SceneSpec {
            noise_sd: 0.05,
            ..SceneSpec::paper_section7()
        },
        seed,
    )
}

/// A small batch scene: 256², 24 cells of mean radius 10.
#[must_use]
pub fn small(seed: u64) -> Scene {
    build(
        &SceneSpec {
            width: 256,
            height: 256,
            n_circles: 24,
            radius_mean: 10.0,
            radius_sd: 1.5,
            radius_min: 5.0,
            radius_max: 18.0,
            noise_sd: 0.05,
            ..SceneSpec::default()
        },
        seed,
    )
}

fn build(spec: &SceneSpec, seed: u64) -> Scene {
    let mut rng = Xoshiro256::new(seed);
    let scene = generate(spec, &mut rng);
    let image = scene.render(&mut rng);
    let mut params = ModelParams::new(
        spec.width,
        spec.height,
        scene.circles.len() as f64,
        spec.radius_mean,
    );
    // A user knows the expected cell size (§I): give the model the
    // scene's radius range and a noise level above the rendered one.
    params.radius_prior = TruncatedNormal::new(
        spec.radius_mean,
        spec.radius_sd.max(0.5),
        spec.radius_min,
        spec.radius_max,
    );
    params.noise_sd = 0.15;
    Scene {
        image,
        params,
        truth: scene.circles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scene() {
        let (a, b, c) = (small(3), small(3), small(4));
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.image.width(), 256);
        assert_ne!(a.truth, c.truth);
        assert_eq!(a.truth.len(), 24);
    }
}
