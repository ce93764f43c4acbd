//! Vectorized in-place optimiser update loops.
//!
//! Both kernels use only IEEE-exact lane operations (`+ − × ÷ √`) in
//! exactly the per-element expression order of the scalar loops in
//! `peb-nn`'s `Adam`, so the SIMD path is **bitwise identical** to the
//! scalar path — training trajectories do not depend on `PEB_SIMD`.

dispatched! {
    /// Adam moment update: `m = m·β₁ + g·(1−β₁)`, `v = v·β₂ + g²·(1−β₂)`.
    pub fn adam_moments<V>(m: &mut [f32], v: &mut [f32], grad: &[f32], beta1: f32, beta2: f32) {
        assert!(m.len() == grad.len() && v.len() == grad.len());
        let (b1, b2) = (V::splat(beta1), V::splat(beta2));
        let (omb1, omb2) = (V::splat(1.0 - beta1), V::splat(1.0 - beta2));
        let n8 = grad.len() - grad.len() % 8;
        let mut i = 0;
        while i < n8 {
            let g = V::load(&grad[i..]);
            let ms = &mut m[i..i + 8];
            V::load(ms).mul(b1).add(g.mul(omb1)).store(ms);
            let vs = &mut v[i..i + 8];
            V::load(vs).mul(b2).add(g.mul(g).mul(omb2)).store(vs);
            i += 8;
        }
        for j in i..grad.len() {
            let g = grad[j];
            m[j] = m[j] * beta1 + g * (1.0 - beta1);
            v[j] = v[j] * beta2 + (g * g) * (1.0 - beta2);
        }
    }
}

dispatched! {
    /// Adam parameter update with bias correction:
    /// `p −= lr · (m·inv_bc1) / (√(v·inv_bc2) + ε)`.
    pub fn adam_apply<V>(
        param: &mut [f32],
        m: &[f32],
        v: &[f32],
        inv_bc1: f32,
        inv_bc2: f32,
        eps: f32,
        lr: f32,
    ) {
        assert!(param.len() == m.len() && param.len() == v.len());
        let (ib1, ib2) = (V::splat(inv_bc1), V::splat(inv_bc2));
        let (ev, lrv) = (V::splat(eps), V::splat(lr));
        let n8 = param.len() - param.len() % 8;
        let mut i = 0;
        while i < n8 {
            let mhat = V::load(&m[i..]).mul(ib1);
            let vhat = V::load(&v[i..]).mul(ib2);
            let update = mhat.div(vhat.sqrt().add(ev));
            let ps = &mut param[i..i + 8];
            V::load(ps).sub(update.mul(lrv)).store(ps);
            i += 8;
        }
        for j in i..param.len() {
            let mhat = m[j] * inv_bc1;
            let vhat = v[j] * inv_bc2;
            let update = mhat / (vhat.sqrt() + eps);
            param[j] -= update * lr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn adam_step_matches_scalar_loop_bitwise() {
        let len = 61;
        let grad = pseudo(len, 1);
        let mut m = pseudo(len, 2);
        let mut v: Vec<f32> = pseudo(len, 3).iter().map(|x| x.abs()).collect();
        let mut p = pseudo(len, 4);
        let (mut mr, mut vr, mut pr) = (m.clone(), v.clone(), p.clone());
        let (b1, b2, ib1, ib2, eps, lr) = (0.9f32, 0.999f32, 1.01f32, 1.2f32, 1e-8f32, 0.03f32);
        // Reference: the exact scalar loops from peb-nn.
        for j in 0..len {
            let g = grad[j];
            mr[j] = mr[j] * b1 + g * (1.0 - b1);
            vr[j] = vr[j] * b2 + (g * g) * (1.0 - b2);
            let mhat = mr[j] * ib1;
            let vhat = vr[j] * ib2;
            pr[j] -= mhat / (vhat.sqrt() + eps) * lr;
        }
        adam_moments(&mut m, &mut v, &grad, b1, b2);
        adam_apply(&mut p, &m, &v, ib1, ib2, eps, lr);
        for j in 0..len {
            assert_eq!(mr[j].to_bits(), m[j].to_bits(), "m[{j}]");
            assert_eq!(vr[j].to_bits(), v[j].to_bits(), "v[{j}]");
            assert_eq!(pr[j].to_bits(), p[j].to_bits(), "p[{j}]");
        }
    }
}
