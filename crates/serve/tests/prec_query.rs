//! The removed `?prec=` selection over the wire: `f32` names what the
//! server does anyway, every other value is a 400 — a request that
//! asked for reduced precision is refused, never served at f32 as if it
//! had been honoured.

use peb_serve::clip::{decode_resp, encode_clip};
use peb_serve::{Client, ServeConfig, Server};
use peb_tensor::Tensor;

#[test]
fn prec_f32_is_the_plain_path_and_any_other_selection_is_a_400() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        grid: (4, 16, 16),
        ..ServeConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let clip = Tensor::from_fn(&[4, 16, 16], |i| (i as f32 * 0.013).sin() * 0.4 + 0.5);
    let frame = encode_clip(&clip);
    let plain = client.infer(&clip).expect("plain infer").bit_digest();

    let r = client
        .request("POST", "/infer?prec=f32", &frame)
        .expect("request completes");
    assert_eq!(r.status, 200);
    assert_eq!(decode_resp(&r.body).expect("frame").bit_digest(), plain);

    for target in [
        "/infer?prec=bf16",
        "/infer?prec=int8",
        "/infer?prec=",
        "/infer?prec",
        "/infer?x=1&prec=f32&prec=int8",
    ] {
        let r = client
            .request("POST", target, &frame)
            .expect("request completes");
        assert_eq!(r.status, 400, "{target}");
        let body = String::from_utf8_lossy(&r.body);
        assert!(
            body.contains("precision selection was removed; compute is f32"),
            "{target}: {body}"
        );
        // The app-level 400 keeps the connection usable.
        assert_eq!(client.infer(&clip).expect("infer").bit_digest(), plain);
    }
    server.shutdown();
}
